"""CTC loss against brute-force enumeration, decoder collapse rules, edit distance."""

import numpy as np
import pytest

from stochpool.ctc import (
    collapse,
    ctc_loss,
    ctc_loss_bruteforce,
    edit_distance,
    greedy_decode,
    min_frames,
)
from stochpool.errors import InfeasibleLabelError, ShapeError
from stochpool.gradcheck import check_gradients
from stochpool.stochastic import Rng
from stochpool.tensor import Tape, Tensor, backward


def rand(seed, *shape):
    return Rng(seed).fork("ctc").normal(int(np.prod(shape))).reshape(shape)


def log_softmax(x):
    s = x - x.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


class TestLossBasics:
    def test_single_frame_single_label(self):
        logits = rand(0, 1, 4)
        loss = ctc_loss(Tensor(logits), (2,)).item()
        assert abs(loss + log_softmax(logits)[0, 2]) < 1e-12

    def test_two_frames_one_label_path_set(self):
        logits = rand(1, 2, 3)
        loss = ctc_loss(Tensor(logits), (1,)).item()
        lp = log_softmax(logits)
        # valid frame paths: (a, blank), (blank, a), (a, a)
        paths = [lp[0, 1] + lp[1, 0], lp[0, 0] + lp[1, 1], lp[0, 1] + lp[1, 1]]
        want = -np.logaddexp.reduce(paths)
        assert abs(loss - want) < 1e-9

    def test_uniform_logits_three_of_nine_paths(self):
        # three symbols per frame (blank + 2 labels): 9 equiprobable frame
        # paths, of which (a,-), (-,a), (a,a) collapse to "a"
        logits = np.zeros((2, 3))
        loss = ctc_loss(Tensor(logits), (1,)).item()
        assert abs(loss + np.log(1.0 / 3.0)) < 1e-12
        assert abs(ctc_loss_bruteforce(logits, (1,)) + np.log(1.0 / 3.0)) < 1e-12

    def test_uniform_logits_single_label_alphabet(self):
        # blank + 1 label: 3 of the 4 frame paths collapse to "a"
        logits = np.zeros((2, 2))
        loss = ctc_loss(Tensor(logits), (1,)).item()
        assert abs(loss + np.log(3.0 / 4.0)) < 1e-12

    def test_empty_label_sequence_all_blank(self):
        logits = rand(2, 3, 3)
        loss = ctc_loss(Tensor(logits), ()).item()
        want = -log_softmax(logits)[:, 0].sum()
        assert abs(loss - want) < 1e-12

    def test_infeasible_raises_not_infinity(self):
        logits = rand(3, 2, 3)
        with pytest.raises(InfeasibleLabelError):
            ctc_loss(Tensor(logits), (1, 2, 1))
        with pytest.raises(InfeasibleLabelError):
            ctc_loss(Tensor(logits), (1, 1))  # repeat needs a blank between

    def test_label_range_validated(self):
        logits = rand(4, 3, 3)
        with pytest.raises(ShapeError):
            ctc_loss(Tensor(logits), (0,))
        with pytest.raises(ShapeError):
            ctc_loss(Tensor(logits), (3,))

    def test_min_frames(self):
        assert min_frames((1, 2, 3)) == 3
        assert min_frames((1, 1, 2)) == 4
        assert min_frames(()) == 0


class TestBruteForceOracle:
    def test_loss_matches_enumeration(self):
        rng = Rng(5).fork("cases")
        checked = 0
        trial = 0
        while checked < 80:
            trial += 1
            t_len = 1 + rng.integer(6)
            vocab = 1 + rng.integer(3)
            n_labels = rng.integer(t_len + 1)
            labels = tuple(1 + rng.integer(vocab) for _ in range(n_labels))
            if t_len < min_frames(labels):
                continue
            logits = rand(100 + trial, t_len, vocab + 1)
            got = ctc_loss(Tensor(logits), labels).item()
            want = ctc_loss_bruteforce(logits, labels)
            assert abs(got - want) < 1e-9, f"T={t_len} labels={labels}"
            checked += 1

    def test_repeated_labels_against_enumeration(self):
        logits = rand(6, 5, 3)
        got = ctc_loss(Tensor(logits), (1, 1)).item()
        want = ctc_loss_bruteforce(logits, (1, 1))
        assert abs(got - want) < 1e-9


class TestLossGradient:
    def test_finite_difference(self):
        for labels in ((1,), (1, 2), (2, 2)):
            check_gradients(lambda x: ctc_loss(x, labels), [rand(7, 5, 3)])

    def test_gradient_flows_through_tape(self):
        logits = Tensor(rand(8, 4, 3))
        with Tape():
            loss = ctc_loss(logits, (1, 2))
        grads = backward(loss)
        g = grads[logits]
        assert g.shape == (4, 3)
        # each row of the gradient sums to zero (softmax minus posterior)
        assert np.abs(g.sum(axis=1)).max() < 1e-12

    def test_pure_blank_frame_appends_negligible_cost(self):
        logits = rand(9, 4, 3)
        base = ctc_loss(Tensor(logits), (1, 2)).item()
        blank_frame = np.array([[40.0, 0.0, 0.0]])
        extended = np.vstack([logits, blank_frame])
        lp_blank = log_softmax(blank_frame)[0, 0]
        got = ctc_loss(Tensor(extended), (1, 2)).item()
        assert abs(got - (base - lp_blank)) < 1e-6


class TestGreedyDecode:
    def test_collapse_repeats_and_blanks(self):
        frames = np.array([
            [0.0, 2.0, 0.0],
            [0.1, 3.0, 0.2],
            [5.0, 0.0, 0.0],
            [0.0, 0.0, 2.0],
        ])
        assert greedy_decode(frames) == [1, 2]

    def test_all_blank_decodes_empty(self):
        assert greedy_decode(np.tile([3.0, 0.0, 0.0], (5, 1))) == []

    def test_blank_separates_repeats(self):
        frames = np.array([[0.0, 2.0, 0.0], [4.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert greedy_decode(frames) == [1, 1]

    def test_ties_break_to_lowest_index(self):
        assert greedy_decode(np.zeros((3, 4))) == []  # blank wins the tie
        frames = np.array([[0.0, 1.0, 1.0]])
        assert greedy_decode(frames) == [1]

    def test_equals_the_collapse_loop_on_its_argmax(self):
        rng = Rng(11).fork("decode")
        for trial in range(200):
            frames = 1 + rng.integer(12)
            # few distinct values, so ties and repeated ids are common
            logits = np.floor(3.0 * rng.uniform(frames * 4)).reshape(frames, 4)
            assert greedy_decode(logits) == collapse(np.argmax(logits, axis=1))

    def test_output_never_contains_blank_or_adjacent_repeats(self):
        rng = Rng(10).fork("decode")
        for trial in range(50):
            logits = rand(200 + trial, 1 + rng.integer(12), 1 + rng.integer(4) + 1)
            out = greedy_decode(logits)
            assert 0 not in out
            raw = np.argmax(logits, axis=1)
            assert out == collapse(raw)


class TestWer:
    """``edit_distance``: the error counts that ``evaluate``'s symbol error
    rate sums over utterances."""

    def test_identical_is_zero(self):
        assert edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_single_deletion(self):
        assert edit_distance(["a", "c"], ["a", "b", "c"]) == 1

    def test_substitution_plus_insertion(self):
        assert edit_distance(["b", "c"], ["a"]) == 2

    def test_edit_distance_dp(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance([], [1, 2]) == 2


def ctc_reference(logits, labels):
    """The frame-by-frame CTC recursion with a boolean skip mask, an oracle
    for the gathered-emission lattices: returns (loss, d loss / d logits)."""
    lp = log_softmax(logits.astype(np.float64))
    z = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    z[1::2] = labels
    t_len, s_len = len(lp), len(z)
    skip_ok = np.zeros(s_len, dtype=bool)
    if s_len >= 3:
        skip_ok[3::2] = z[3::2] != z[1:-2:2]
    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = lp[0, z[0]]
    if s_len > 1:
        alpha[0, 1] = lp[0, z[1]]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        if s_len >= 3:
            acc[2:] = np.logaddexp(acc[2:], np.where(skip_ok[2:], prev[:-2], -np.inf))
        alpha[t] = acc + lp[t, z]
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2]) if s_len > 1 else alpha[-1, -1]
    beta = np.full((t_len, s_len), -np.inf)
    beta[-1, -1] = 0.0
    if s_len > 1:
        beta[-1, -2] = 0.0
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1, z]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        if s_len >= 3:
            acc[:-2] = np.logaddexp(acc[:-2], np.where(skip_ok[2:], nxt[2:], -np.inf))
        beta[t] = acc
    occupancy = np.exp(alpha + beta - log_p)
    posterior = np.zeros_like(lp)
    np.add.at(posterior.T, z, occupancy.T)
    return np.asarray(-log_p, dtype=logits.dtype), (np.exp(lp) - posterior).astype(logits.dtype)


class TestLatticeBitIdentity:
    """The guarded lattices over gathered emissions round exactly like the
    reference recursion, so loss and gradient are equal, not just close."""

    CASES = [
        ("min_frames", (1, 2, 3, 4), 4, 1.0, np.float64),
        ("min_frames_repeats", (2, 2, 1, 1, 1), 8, 1.0, np.float64),
        ("long", (1, 3, 2), 52, 1.0, np.float64),
        ("empty", (), 7, 1.0, np.float64),
        ("empty_single_frame", (), 1, 1.0, np.float64),
        ("single_frame", (2,), 1, 1.0, np.float64),
        ("repeats", (3, 3, 3, 1, 1), 20, 1.0, np.float64),
        ("scaled_x50", (1, 2, 2, 4), 30, 50.0, np.float64),
        ("float32", (4, 1, 1, 2), 25, 1.0, np.float32),
        ("float32_scaled_x50", (2, 2), 12, 50.0, np.float32),
    ]

    @pytest.mark.parametrize("name,labels,t_len,gain,dtype", CASES, ids=[c[0] for c in CASES])
    def test_loss_and_gradient_equal_reference(self, name, labels, t_len, gain, dtype):
        assert t_len >= min_frames(labels)
        logits = (gain * rand(300 + t_len, t_len, 5)).astype(dtype)
        want_loss, want_grad = ctc_reference(logits, labels)
        x = Tensor(logits)
        with Tape():
            loss = ctc_loss(x, labels)
        grad = backward(loss)[x]
        assert loss.data.dtype == grad.dtype == dtype
        assert np.array_equal(loss.data, want_loss)
        assert np.array_equal(grad, want_grad)
