#!/usr/bin/env python3
"""Regenerate the shipped synthetic corpora under data/synthetic/.

Two corpora over the same 12-label, depth-3 hierarchy:

* train/heldout: every gold label plants its keywords in the meme text,
  so a hashed n-gram linear model can learn the task from text alone.
* ablation_train/ablation_heldout: the meme text is pure noise and the
  discriminative keywords live only in the caption field, so text+caption
  features must beat text-only features.

Deterministic for a fixed seed; the checked-in files were produced with
the defaults below.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from persuasionkit.corpus import json_pieces  # noqa: E402
from persuasionkit.hierarchy import parse_hierarchy  # noqa: E402

HIERARCHY = """\
# Synthetic 12-label persuasion hierarchy (depth 3) for baseline tests.
persuasion
Ethos\tpersuasion
Pathos\tpersuasion
Logos\tpersuasion
AdHominem\tEthos
Authority\tEthos
FearAppeal\tPathos
FlagWaving\tPathos
Simplification\tLogos
Repetition\tLogos
NameCalling\tAdHominem
Scapegoating\tFearAppeal
CausalFallacy\tSimplification
"""

KEYWORDS = {
    "Ethos": ["trustme", "credible", "reputable"],
    "Pathos": ["heartfelt", "tearful", "emotive"],
    "Logos": ["therefore", "statistics", "deduce"],
    "AdHominem": ["hypocrite", "corrupt", "shady"],
    "Authority": ["experts", "official", "professor"],
    "FearAppeal": ["danger", "threat", "catastrophe"],
    "FlagWaving": ["patriot", "homeland", "ourflag"],
    "Simplification": ["simply", "obvious", "plainly"],
    "Repetition": ["again", "repeat", "echo"],
    "NameCalling": ["loser", "clown", "traitor"],
    "Scapegoating": ["blamethem", "theirfault", "scapegoat"],
    "CausalFallacy": ["becauseofthis", "causedby", "singlecause"],
}

NOISE = [
    "morning", "coffee", "window", "street", "music", "yellow", "river",
    "garden", "sunday", "paper", "bottle", "cloud", "market", "candle",
    "pocket", "bridge", "winter", "summer", "letter", "silver", "stone",
    "meadow", "lantern", "harbor", "village", "orchard", "pepper", "saddle",
    "timber", "velvet", "anchor", "basket", "copper", "drawer", "engine",
    "fabric", "goblet", "hammer", "island", "jacket",
]


def make_doc(rng: random.Random, h, labels, idx: int, prefix: str,
             keywords_in_caption: bool) -> dict:
    k = rng.choice([1, 1, 2, 2, 3])
    core = rng.sample(labels, k)
    gold = sorted(h.extend(core))
    # Signal has to dominate the bag: the trainer is a fixed-epoch
    # full-batch descent on L2-normalized features, so thin signal keeps
    # positive scores below the default 0.5 threshold.
    signal: list[str] = []
    for lab in core:
        signal += [rng.choice(KEYWORDS[lab]) for _ in range(rng.randint(5, 7))]
    for lab in gold:
        if lab not in core and rng.random() < 0.7:
            signal.append(rng.choice(KEYWORDS[lab]))
    noise = [rng.choice(NOISE) for _ in range(rng.randint(2, 5))]

    rec = {"id": f"{prefix}-{idx:04d}"}
    if keywords_in_caption:
        text = noise[:]
        rng.shuffle(text)
        caption = signal + [rng.choice(NOISE) for _ in range(rng.randint(2, 4))]
        rng.shuffle(caption)
        rec["text"] = " ".join(text)
        rec["caption"] = " ".join(caption)
        rec["caption_source"] = "manual"
    else:
        text = signal + noise
        rng.shuffle(text)
        rec["text"] = " ".join(text)
    rec["labels"] = gold
    return rec


def write(path: str, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_pieces(records))
    print(f"wrote {len(records):4d} records -> {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "..", "data", "synthetic"))
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--train", type=int, default=500)
    ap.add_argument("--heldout", type=int, default=100)
    ap.add_argument("--ablation-train", type=int, default=300)
    ap.add_argument("--ablation-heldout", type=int, default=100)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "hierarchy.txt"), "w", encoding="utf-8") as fh:
        fh.write(HIERARCHY)
    h = parse_hierarchy(HIERARCHY)
    labels = sorted(h.non_root_labels())
    assert set(labels) == set(KEYWORDS)

    rng = random.Random(args.seed)
    write(os.path.join(args.out, "train.json"),
          [make_doc(rng, h, labels, i, "syn", False) for i in range(args.train)])
    write(os.path.join(args.out, "heldout.json"),
          [make_doc(rng, h, labels, i, "synh", False) for i in range(args.heldout)])
    write(os.path.join(args.out, "ablation_train.json"),
          [make_doc(rng, h, labels, i, "abl", True) for i in range(args.ablation_train)])
    write(os.path.join(args.out, "ablation_heldout.json"),
          [make_doc(rng, h, labels, i, "ablh", True) for i in range(args.ablation_heldout)])


if __name__ == "__main__":
    main()
