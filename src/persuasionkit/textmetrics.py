"""Caption quality metrics: ROUGE-L and BLEU-4 over token sequences.

Both metrics work on pre-tokenized sequences; :func:`tokenize` is the
deterministic reference tokenizer (lowercase, punctuation marks become
standalone tokens, whitespace splits).  Scores live in [0, 1].
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "tokenize",
    "RougeLScore",
    "rouge_l",
    "bleu4",
    "CaptionQualityReport",
    "score_caption_pairs",
]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word and single-punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RougeLScore:
    precision: float
    recall: float
    f1: float


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    # Bit-parallel LCS length (Allison & Dix 1986; Hyyro 2004).  Bit j of v
    # is 0 where the LCS of the tokens of a read so far with b[:j + 1] is
    # one longer than with b[:j], so the zeros count the LCS.  Each token
    # of the longer sequence costs one add and a few masks on an int of
    # len(b) bits; the result is the integer the quadratic table gives.
    if len(b) > len(a):
        a, b = b, a
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeLScore:
    """Longest-common-subsequence precision, recall and F1.

    P = LCS / |candidate|, R = LCS / |reference|, F1 their harmonic mean
    (0 when the LCS is empty).  Empty candidates score zero; an empty
    reference is an error.
    """
    if not reference:
        raise ValueError("reference must be nonempty")
    if not candidate:
        return RougeLScore(0.0, 0.0, 0.0)
    lcs = _lcs_len(candidate, reference)
    if lcs == 0:
        return RougeLScore(0.0, 0.0, 0.0)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return RougeLScore(p, r, 2.0 * p * r / (p + r))


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu4(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_order: int = 4,
) -> float:
    """BLEU with clipped modified n-gram precisions up to ``max_order``.

    The geometric mean runs over the orders for which the candidate has at
    least one n-gram, so candidates shorter than ``max_order`` tokens are
    scored on the orders they support instead of degenerating to zero.
    Brevity penalty exp(1 - r/c) applies when the candidate is shorter
    than the closest reference length r (ties resolve to the shorter
    reference).  An empty candidate scores 0; at least one nonempty
    reference is required.
    """
    refs = [list(r) for r in references]
    if not refs or all(len(r) == 0 for r in refs):
        raise ValueError("at least one nonempty reference is required")
    if not candidate:
        return 0.0

    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]

    log_sum = 0.0
    orders = 0
    for n in range(1, max_order + 1):
        cand_counts = _ngram_counts(candidate, n)
        if not cand_counts:
            continue
        max_ref = _ngram_counts(refs[0], n)
        for ref in refs[1:]:
            max_ref |= _ngram_counts(ref, n)
        clipped = sum((cand_counts & max_ref).values())
        total = c - n + 1
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
        orders += 1
    if orders == 0:
        return 0.0

    geo = math.exp(log_sum / orders)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


@dataclass(frozen=True)
class CaptionQualityReport:
    rouge_l_precision: float
    rouge_l_recall: float
    rouge_l_f1: float
    bleu_4: float
    n_pairs: int


def score_caption_pairs(
    candidates: Sequence[str], references: Sequence[str]
) -> CaptionQualityReport:
    """Mean ROUGE-L / BLEU-4 over aligned candidate/reference text pairs.

    Inputs are raw strings (one caption each); tokenization is applied
    here.  Averaging is a plain arithmetic mean over pairs, folded in
    input order.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference counts differ: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise ValueError("no caption pairs to score")
    rp = rr = rf = bl = 0.0
    for i, (cand, ref) in enumerate(zip(candidates, references)):
        ref_tokens = tokenize(ref)
        if not ref_tokens:
            raise ValueError(f"pair {i}: reference tokenizes to nothing")
        cand_tokens = tokenize(cand)
        rs = rouge_l(cand_tokens, ref_tokens)
        rp += rs.precision
        rr += rs.recall
        rf += rs.f1
        bl += bleu4(cand_tokens, [ref_tokens])
    n = len(candidates)
    return CaptionQualityReport(
        rouge_l_precision=rp / n,
        rouge_l_recall=rr / n,
        rouge_l_f1=rf / n,
        bleu_4=bl / n,
        n_pairs=n,
    )
