import os
import random

import numpy as np
import pytest

from persuasionkit.hierarchy import (
    HierarchyError,
    LabelHierarchy,
    UnknownLabelError,
    parse_hierarchy,
)

from oracles import (
    brute_extend,
    brute_floating_parents,
    brute_has_cycle,
    random_hierarchy,
)

WORKED = "persuasion\nEthos\tpersuasion\nNameCalling\tEthos\nPathos\tpersuasion"


def test_parse_worked_hierarchy():
    h = parse_hierarchy(WORKED)
    assert h.root == "persuasion"
    assert h.nodes == {"persuasion", "Ethos", "NameCalling", "Pathos"}
    assert h.ancestors("NameCalling") == {"Ethos"}
    assert h.ancestors("Ethos") == frozenset()
    assert h.extend({"NameCalling"}) == {"NameCalling", "Ethos"}
    assert h.extend([]) == frozenset()


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\npersuasion\n# more\nEthos\tpersuasion\n\n"
    h = parse_hierarchy(text)
    assert h.nodes == {"persuasion", "Ethos"}


# The separators str.splitlines() breaks at besides newlines.
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_NEWLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_parse_splits_lines_at_newlines_only(sep):
    # With str.splitlines, "feed" became line 3, a bare name, and the
    # valid edge after it was refused.
    h = parse_hierarchy(f"persuasion\n# form{sep}feed\nEthos\tpersuasion\n")
    assert h.nodes == {"persuasion", "Ethos"}
    with pytest.raises(HierarchyError, match="^line 3: expected child<TAB>parent"):
        parse_hierarchy(f"persuasion\n# form{sep}feed\nEthos\n")


def test_is_consistent():
    h = parse_hierarchy(WORKED)
    assert h.is_consistent({"NameCalling", "Ethos"})
    assert not h.is_consistent({"NameCalling"})
    assert h.is_consistent(set())
    assert h.is_consistent({"Pathos"})


def test_extend_rejects_root_and_unknown():
    h = parse_hierarchy(WORKED)
    with pytest.raises(HierarchyError):
        h.extend({"persuasion"})
    with pytest.raises(UnknownLabelError):
        h.extend({"NoSuchLabel"})
    with pytest.raises(UnknownLabelError):
        h.ancestors("NoSuchLabel")


def test_parse_empty_input():
    with pytest.raises(HierarchyError, match="empty"):
        parse_hierarchy("")
    with pytest.raises(HierarchyError, match="empty"):
        parse_hierarchy("# only a comment\n")


def test_parse_multiple_roots():
    with pytest.raises(HierarchyError, match="multiple roots"):
        parse_hierarchy("persuasion\nEthos\tpersuasion\nSecondRoot")


def test_parse_duplicate_edge():
    with pytest.raises(HierarchyError, match="duplicate edge"):
        parse_hierarchy("persuasion\nEthos\tpersuasion\nEthos\tpersuasion")


def test_parse_unknown_parent():
    with pytest.raises(HierarchyError, match="unknown parent"):
        parse_hierarchy("persuasion\nA\tGhost")


def test_parse_root_as_child():
    with pytest.raises(HierarchyError, match="root"):
        parse_hierarchy("persuasion\npersuasion\tpersuasion")


def test_parse_cycles():
    two_cycle = "persuasion\nA\tpersuasion\nB\tA\nA\tB"
    with pytest.raises(HierarchyError, match="cycle"):
        parse_hierarchy(two_cycle)
    self_loop = "persuasion\nA\tA"
    with pytest.raises(HierarchyError, match="cycle"):
        parse_hierarchy(self_loop)


def test_dag_multiple_parents():
    text = (
        "persuasion\nEthos\tpersuasion\nLogos\tpersuasion\n"
        "Shared\tEthos\nShared\tLogos\nLeaf\tShared"
    )
    h = parse_hierarchy(text)
    assert h.ancestors("Leaf") == {"Shared", "Ethos", "Logos"}
    assert h.extend({"Leaf"}) == {"Leaf", "Shared", "Ethos", "Logos"}


def test_leaves_and_fingerprint():
    h = parse_hierarchy(WORKED)
    assert h.leaves() == {"NameCalling", "Pathos"}
    reordered = "persuasion\nPathos\tpersuasion\n# x\nNameCalling\tEthos\nEthos\tpersuasion"
    assert parse_hierarchy(reordered).fingerprint() == h.fingerprint()
    other = parse_hierarchy("persuasion\nEthos\tpersuasion")
    assert other.fingerprint() != h.fingerprint()


def test_shipped_technique_hierarchies(data_dir):
    with open(os.path.join(data_dir, "hierarchies", "subtask1_techniques.txt"), encoding="utf-8") as fh:
        h1 = parse_hierarchy(fh.read())
    with open(os.path.join(data_dir, "hierarchies", "subtask2a_techniques.txt"), encoding="utf-8") as fh:
        h2 = parse_hierarchy(fh.read())
    assert len(h1.leaves()) == 20
    assert len(h2.leaves()) == 22
    # the two visual-only techniques exist only in the 2a taxonomy
    assert "Transfer" in h2.nodes and "Transfer" not in h1.nodes
    assert "Appeal to (Strong) Emotions" in h2.nodes
    # a shared technique reaches both of its parents
    assert {"Ad Hominem", "Distraction"} <= h2.ancestors("Whataboutism")


def test_extend_properties_against_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        root, names, edges = random_hierarchy(rng, max_nodes=20)
        h = LabelHierarchy.from_edges(root, edges)
        labels = {x for x in names if rng.random() < 0.3}
        ext = h.extend(labels)
        assert ext == brute_extend(root, edges, labels)
        assert labels <= ext                      # extensive
        assert h.extend(ext) == ext               # idempotent
        sub = {x for x in labels if rng.random() < 0.5}
        assert h.extend(sub) <= ext               # monotone
        assert h.is_consistent(ext)


@pytest.mark.parametrize("name", ["subtask1_techniques.txt", "subtask2a_techniques.txt"])
def test_closure_matrix_rows_match_oracle(data_dir, name):
    with open(os.path.join(data_dir, "hierarchies", name), encoding="utf-8") as fh:
        h = parse_hierarchy(fh.read())
    edges = sorted(h.edges)
    assert h.labels == tuple(sorted(h.non_root_labels()))
    assert h.closure.shape == (len(h.labels), len(h.labels))
    for j, label in enumerate(h.labels):
        row = {h.labels[k] for k in np.flatnonzero(h.closure[j])}
        assert row == brute_extend(h.root, edges, [label])


def test_closed_rows_match_extend_on_random_dags():
    rng = random.Random(31)
    for _ in range(200):
        root, names, edges = random_hierarchy(rng, max_nodes=20)
        h = LabelHierarchy.from_edges(root, edges)
        sets = [{x for x in names if rng.random() < 0.2} for _ in range(rng.randint(0, 6))]
        rows = h.closed_rows(sets)
        assert rows.dtype == bool and rows.shape == (len(sets), len(names))
        for labels, row in zip(sets, rows):
            assert {h.labels[k] for k in np.flatnonzero(row)} == brute_extend(root, edges, labels)


def test_closed_rows_rejects_root_and_unknown():
    h = parse_hierarchy(WORKED)
    with pytest.raises(HierarchyError, match="virtual root") as exc:
        h.closed_rows([{"Pathos"}, {"persuasion"}])
    assert not isinstance(exc.value, UnknownLabelError)
    with pytest.raises(UnknownLabelError, match="NoSuchLabel"):
        h.closed_rows([set(), ["Ethos", "NoSuchLabel"]])
    assert h.closed_rows([]).shape == (0, 3)


def test_parse_accepts_exactly_the_valid_graphs():
    # Random edge subsets over a small node pool, compared against the
    # brute-force cycle detector and floating-parent check.
    rng = random.Random(99)
    names = ["A", "B", "C", "D"]
    root = "r"
    slots = [(c, p) for c in names for p in [root] + names]
    for _ in range(2000):
        chosen = [s for s in slots if rng.random() < 0.18]
        text = root + "\n" + "\n".join(f"{c}\t{p}" for c, p in chosen)
        cyclic = brute_has_cycle(chosen)
        floating = brute_floating_parents(root, chosen)
        try:
            h = parse_hierarchy(text)
            ok = True
        except HierarchyError:
            ok = False
        assert ok == (not cyclic and not floating), (chosen, cyclic, floating)
        if ok:
            for name in {c for c, _ in chosen}:
                assert h.ancestors(name) == brute_extend(root, chosen, [name]) - {name}
