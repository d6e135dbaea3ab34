"""CTC loss, greedy decoding, and word-error-rate scoring.

The loss marginalizes over every monotonic blank-augmented alignment of
the label sequence using the forward recursion over the extended label
string (blanks interleaved), entirely in log space. The backward pass
uses the companion beta recursion: the gradient with respect to the
logits is softmax(logits) minus the alignment posterior. Blank is always
id 0; real labels are 1..V.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InfeasibleLabelError, ShapeError
from .tensor import Tensor, _wrap, as_tensor

BLANK = 0


def _validate_labels(labels, vocab: int) -> tuple:
    labels = tuple(map(int, labels))
    if labels and (min(labels) < 1 or max(labels) > vocab):
        raise ShapeError(f"labels must lie in 1..{vocab}, got {labels}")
    return labels


def min_frames(labels) -> int:
    """Fewest frames that can realize the label sequence under CTC."""
    labels = tuple(labels)
    return len(labels) + sum(map(operator.eq, labels, labels[1:]))


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    norm = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
    shifted -= np.log(norm, out=norm)
    return shifted


def ctc_loss(logits, labels) -> Tensor:
    """Negative log-likelihood of ``labels`` under per-frame ``logits``.

    ``logits`` is T x (V+1) with blank at column 0. Raises
    InfeasibleLabelError when the label sequence cannot fit in T frames
    (rather than returning an infinite loss).
    """
    logits = logits if type(logits) is Tensor else as_tensor(logits)
    data = logits.data
    if data.ndim != 2 or data.shape[1] < 2:
        raise ShapeError(f"logits must be T x (V+1) with V >= 1, got {data.shape}")
    t_len, width = data.shape
    labels = _validate_labels(labels, width - 1)
    needed = min_frames(labels)
    if t_len < needed:
        raise InfeasibleLabelError(
            f"labels of collapsed length {len(labels)} need at least {needed} frames, got {t_len}"
        )

    lp = _log_softmax(data.astype(np.float64, copy=False))
    z = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    z[1::2] = labels
    s_len = len(z)
    em = lp[:, z]  # T x S emission log probabilities along the extended labels
    neg_inf = -np.inf
    # hop[s] is 0 where the skip s-2 -> s exists (z[s] is a real label
    # differing from z[s-2]) and -inf elsewhere, with two -inf guards behind
    hop = np.full(s_len + 2, neg_inf)
    hop[3:s_len:2][z[3::2] != z[1:-2:2]] = 0.0
    skip = np.empty(s_len)
    hop_in, hop_out = hop[:s_len], hop[2:]

    # alpha[t, 2 + s]: two -inf guard columns in front stand in for the
    # missing predecessors of states 0 and 1, so every frame is four
    # full-row ufunc calls; log-adding -inf is exact
    guarded = np.full((t_len, s_len + 2), neg_inf)
    alpha = guarded[:, 2:]
    alpha[0, :2] = em[0, :2]
    for cur, stay, step, jump, e in zip(alpha[1:], alpha[:-1], guarded[:-1, 1:-1],
                                        guarded[:-1, :-2], em[1:]):
        np.logaddexp(stay, step, out=cur)
        np.add(jump, hop_in, out=skip)
        np.logaddexp(cur, skip, out=cur)
        cur += e

    if s_len > 1:
        log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    else:
        log_p = alpha[-1, -1]

    # beta excludes the emission at its own frame: beta[t, s] is the log
    # probability of finishing the path from state s using frames t+1..T-1.
    # The successor row beta[t+1] + em[t+1] has two -inf guards behind.
    beta = np.full((t_len, s_len), neg_inf)
    beta[-1, max(0, s_len - 2):] = 0.0
    nxt = np.full(s_len + 2, neg_inf)
    here, next_one, next_two = nxt[:s_len], nxt[1:-1], nxt[2:]
    for cur, later, e in zip(beta[-2::-1], beta[:0:-1], em[:0:-1]):
        np.add(later, e, out=here)
        np.logaddexp(here, next_one, out=cur)
        np.add(next_two, hop_out, out=skip)
        np.logaddexp(cur, skip, out=cur)

    # posterior over emitted symbols: sum_s exp(alpha + beta - log_p) per label id
    occupancy = np.add(alpha, beta)
    occupancy -= log_p
    np.exp(occupancy, out=occupancy)
    posterior = np.zeros_like(lp)
    np.add.at(posterior.T, z, occupancy.T)
    grad_logits = np.exp(lp)
    grad_logits -= posterior
    grad_logits = grad_logits.astype(data.dtype, copy=False)

    def bwd(g):
        return (g * grad_logits,)

    loss_value = np.asarray(-log_p, dtype=data.dtype)
    return _wrap(loss_value, (logits,), bwd)


def ctc_loss_bruteforce(logits: np.ndarray, labels) -> float:
    """Loss by explicit enumeration of all (V+1)^T frame paths.

    Exponential in T; usable only as a small-instance oracle.
    """
    logits = np.asarray(logits, dtype=np.float64)
    t_len, width = logits.shape
    labels = tuple(int(l) for l in labels)
    lp = _log_softmax(logits)
    total = -np.inf
    stack = [((), 0.0)]
    for t in range(t_len):
        nxt = []
        for path, acc in stack:
            for sym in range(width):
                nxt.append((path + (sym,), acc + lp[t, sym]))
        stack = nxt
    for path, acc in stack:
        if tuple(collapse(path)) == labels:
            total = np.logaddexp(total, acc)
    if total == -np.inf:
        raise InfeasibleLabelError("no path realizes the label sequence")
    return float(-total)


def collapse(frame_ids) -> list:
    """Collapse repeats then drop blanks (the CTC many-to-one map)."""
    out = []
    prev = None
    for sym in frame_ids:
        if sym != prev and sym != BLANK:
            out.append(int(sym))
        prev = sym
    return out


def greedy_decode(logits) -> list:
    """Per-frame argmax (ties to the lowest id), collapsed to labels: a
    frame is kept when it is not blank and differs from the frame before."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if data.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {data.shape}")
    ids = data.argmax(axis=1)
    keep = ids != BLANK
    keep[1:] &= ids[1:] != ids[:-1]
    return ids[keep].tolist()


def edit_distance(hyp, ref) -> int:
    """Levenshtein distance between two symbol sequences."""
    hyp, ref = list(hyp), list(ref)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    return prev[-1]

