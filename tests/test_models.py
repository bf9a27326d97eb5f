import dataclasses
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentrack import models
from decentrack.models import (
    Batch,
    SyntheticProblemSpec,
    finite_diff_check,
    make_oracle,
    make_problem,
)


def quad_spec(**kw):
    base = dict(kind="quadratic", d=4, n_agents=8, zeta=1.0, sigma=0.0, seed=0)
    base.update(kw)
    return SyntheticProblemSpec(**base)


class TestQuadratic:
    def test_two_agent_unit_zeta_offsets(self):
        prob = make_problem(quad_spec(n_agents=2, d=1))
        b_bar = prob.x_star
        assert sorted(np.ravel(prob.b - b_bar)) == pytest.approx([-1.0, 1.0])

    def test_gradient_deviation_equals_zeta(self):
        prob = make_problem(quad_spec(zeta=1.7))
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(prob.dim)
            grads = np.stack(
                [prob.exact_loss_and_grad(i, x)[1] for i in range(prob.n_agents)]
            )
            dev = np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1))
            assert dev == pytest.approx(1.7**2, abs=1e-10)

    def test_zeta_zero_identical_objectives(self):
        prob = make_problem(quad_spec(zeta=0.0))
        x = np.ones(prob.dim)
        ref = prob.exact_loss_and_grad(0, x)
        for i in range(1, prob.n_agents):
            loss, grad = prob.exact_loss_and_grad(i, x)
            assert loss == ref[0]
            assert np.array_equal(grad, ref[1])

    def test_optimum(self):
        prob = make_problem(quad_spec(zeta=0.5))
        grads = np.stack(
            [prob.exact_loss_and_grad(i, prob.x_star)[1] for i in range(prob.n_agents)]
        )
        assert np.max(np.abs(grads.mean(axis=0))) < 1e-12
        assert prob.global_loss(prob.x_star) == pytest.approx(prob.f_star)

    def test_hand_loss_and_grad(self):
        # f(x) = 0.5 (x - 1)^2 at x = 2
        prob = make_problem(quad_spec(n_agents=2, d=1, zeta=0.0))
        prob.b = np.array([[1.0], [1.0]])
        batch = prob.draw_batch(0, rnd=0)
        loss, grad = prob.loss_and_grad(0, np.array([2.0]), batch)
        assert (loss, grad[0]) == (0.5, 1.0)

    def test_smoothness_exact(self):
        prob = make_problem(quad_spec())
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, prob.dim))
        gx = prob.exact_loss_and_grad(3, x)[1]
        gy = prob.exact_loss_and_grad(3, y)[1]
        assert np.linalg.norm(gy - gx) == pytest.approx(np.linalg.norm(y - x))

    def test_zeta_requires_two_agents(self):
        with pytest.raises(ValueError, match="at least 2 agents"):
            make_problem(quad_spec(n_agents=1, zeta=1.0))

    def test_non_finite_params_rejected(self):
        prob = make_problem(quad_spec())
        batch = prob.draw_batch(0, rnd=0)
        with pytest.raises(ValueError, match="non-finite"):
            prob.loss_and_grad(0, np.full(prob.dim, np.nan), batch)


class TestCurvature:
    """f_i = (L/2) ||x - b_i||^2 at L = 2.5."""

    def test_oracle_matches_per_agent_reference(self):
        prob = make_problem(quad_spec(L=2.5, sigma=0.3))
        X = np.random.default_rng(5).standard_normal((prob.n_agents, prob.dim))
        losses, G = make_oracle(prob, seed=4)(X, 7)
        for i in range(prob.n_agents):
            loss, grad = prob.loss_and_grad(i, X[i], prob.draw_batch(i, 7, seed=4))
            assert losses[i] == pytest.approx(loss, rel=1e-12)
            assert np.array_equal(G[i], grad)

    def test_noise_free_gradient_is_scaled_residual(self):
        prob = make_problem(quad_spec(L=2.5))
        X = np.random.default_rng(5).standard_normal((prob.n_agents, prob.dim))
        losses, G = make_oracle(prob)(X, 0)
        assert np.array_equal(G, 2.5 * (X - prob.b))
        assert np.allclose(losses, 1.25 * np.sum((X - prob.b) ** 2, axis=1), rtol=1e-14, atol=0)

    def test_gradients_match_central_differences(self):
        prob = make_problem(quad_spec(L=2.5))
        rng = np.random.default_rng(3)
        for _ in range(3):
            assert finite_diff_check(prob, rng.standard_normal(prob.dim), eps=1e-5) <= 1e-8

    def test_optimum_value(self):
        prob = make_problem(quad_spec(L=2.5, zeta=0.8))
        assert prob.f_star == 0.5 * 2.5 * 0.8**2
        assert prob.global_loss(prob.x_star) == prob.f_star
        x = np.random.default_rng(6).standard_normal(prob.dim)
        mean_loss = np.mean([prob.exact_loss_and_grad(i, x)[0] for i in range(prob.n_agents)])
        assert prob.global_loss(x) == pytest.approx(mean_loss, rel=1e-12)


class TestNoiseSubstreams:
    def test_same_key_same_noise(self):
        prob = make_problem(quad_spec(sigma=0.3))
        x = np.zeros(prob.dim)
        b = prob.draw_batch(2, rnd=5)
        g1 = prob.loss_and_grad(2, x, b)[1]
        g2 = prob.loss_and_grad(2, x, b)[1]
        assert np.array_equal(g1, g2)

    def test_distinct_keys_distinct_noise(self):
        prob = make_problem(quad_spec(sigma=0.3))
        x = np.zeros(prob.dim)
        g_a = prob.loss_and_grad(0, x, prob.draw_batch(0, rnd=0))[1]
        g_b = prob.loss_and_grad(0, x, prob.draw_batch(0, rnd=1))[1]
        g_c = prob.loss_and_grad(0, x, prob.draw_batch(1, rnd=0))[1]
        assert not np.array_equal(g_a, g_b)
        assert not np.array_equal(g_a, g_c)

    def test_oracle_seed_changes_stream(self):
        prob = make_problem(quad_spec(sigma=0.3))
        X = np.zeros((prob.n_agents, prob.dim))
        o1 = make_oracle(prob, seed=1)
        o2 = make_oracle(prob, seed=2)
        assert not np.array_equal(o1(X, 0)[1][0], o2(X, 0)[1][0])

    def test_unbiased_gradient(self):
        sigma = 0.1
        prob = make_problem(quad_spec(d=1, sigma=sigma))
        x = np.array([0.7])
        exact = prob.exact_loss_and_grad(0, x)[1]
        draws = 10**4
        total = 0.0
        for rnd in range(draws):
            total += prob.loss_and_grad(0, x, prob.draw_batch(0, rnd))[1][0]
        assert abs(total / draws - exact[0]) <= 3 * sigma / np.sqrt(draws)


def classification_spec(kind, **kw):
    base = dict(
        kind=kind, d=6, n_agents=4, seed=0, n_classes=5, n_samples=400, hidden=8
    )
    base.update(kw)
    return SyntheticProblemSpec(**base)


class TestClassification:
    def test_softmax_uniform_logits_loss(self):
        prob = make_problem(classification_spec("softmax"))
        batch = prob.draw_batch(0, rnd=0, batch_size=None)
        loss, _ = prob.loss_and_grad(0, np.zeros(prob.dim), batch)
        assert loss == pytest.approx(np.log(5))

    def test_oracle_weights_reach_full_accuracy(self):
        spec = classification_spec("softmax", separation=50.0)
        prob = make_problem(spec)
        # unit-norm class means as prototypes: with negligible noise the
        # argmax over cosine scores recovers every label
        means = prob._draw.means
        w = means / np.linalg.norm(means, axis=1, keepdims=True)
        _, acc = prob.evaluate(w.ravel())
        assert acc == 1.0

    def test_random_predictor_chance_level(self):
        spec = classification_spec("softmax", n_classes=10, n_samples=5000, d=8)
        prob = make_problem(spec)
        rng = np.random.default_rng(0)
        accs = [
            prob.evaluate(1e-6 * rng.standard_normal(prob.dim))[1] for _ in range(20)
        ]
        assert np.mean(accs) == pytest.approx(0.1, abs=0.05)

    def test_non_finite_params_rejected(self):
        prob = make_problem(classification_spec("softmax"))
        params = np.zeros(prob.dim)
        params[1] = np.nan
        with pytest.raises(ValueError, match="non-finite parameters supplied to agent 3"):
            prob.loss_and_grad(3, params, prob.draw_batch(3, rnd=0))

    def test_quadratic_reports_no_accuracy(self):
        prob = make_problem(quad_spec())
        loss, acc = prob.evaluate(np.zeros(prob.dim))
        assert acc is None
        assert loss == prob.global_loss(np.zeros(prob.dim))

    def test_batches_stay_within_assignment(self):
        prob = make_problem(classification_spec("softmax"))
        for agent in range(prob.n_agents):
            own = set(prob.assignments[agent].tolist())
            for rnd in range(5):
                batch = prob.draw_batch(agent, rnd, batch_size=16)
                assert set(batch.indices.tolist()) <= own

    def test_batch_draw_deterministic(self):
        prob = make_problem(classification_spec("mlp"))
        a = prob.draw_batch(1, 7, batch_size=8)
        b = prob.draw_batch(1, 7, batch_size=8)
        assert np.array_equal(a.indices, b.indices)


# exp overflows above this, so logits beyond it need the max shift
EXP_LIMIT = np.log(np.finfo(float).max)


def row_major_evaluate(prob, params):
    """Test loss, accuracy and logits, with one test sample per row of the logits."""
    feats, labels = prob.test_features, prob.test_labels
    if prob.kind == "softmax":
        logits = feats @ params.reshape(prob.spec.n_classes, prob.spec.d).T
    else:
        w1, b1, w2, b2 = prob._unpack(params)
        logits = np.tanh(feats @ w1.T + b1) @ w2.T + b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[np.arange(len(labels)), labels] + 1e-300))
    return float(loss), float(np.mean(np.argmax(logits, axis=1) == labels)), logits


class TestClassMajorEvaluate:
    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_matches_row_major_transcription(self, kind, scale):
        prob = make_problem(classification_spec(kind, n_classes=10, n_samples=2000))
        rng = np.random.default_rng(5)
        for _ in range(5):
            params = scale * rng.standard_normal(prob.dim)
            loss, acc = prob.evaluate(params)
            ref_loss, ref_acc, logits = row_major_evaluate(prob, params)
            assert scale == 1.0 or np.abs(logits).max() > EXP_LIMIT
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert acc == ref_acc


class TestFiniteDiffCheck:
    @pytest.mark.parametrize(
        "kind,bound", [("quadratic", 1e-8), ("softmax", 1e-5), ("mlp", 1e-5)]
    )
    def test_gradients_match_central_differences(self, kind, bound):
        if kind == "quadratic":
            prob = make_problem(quad_spec())
        else:
            prob = make_problem(classification_spec(kind))
        rng = np.random.default_rng(3)
        for _ in range(3):
            params = rng.standard_normal(prob.dim)
            assert finite_diff_check(prob, params, eps=1e-5) <= bound

    @pytest.mark.parametrize("kind", ["quadratic", "softmax", "mlp"])
    def test_full_batch_loss_and_grad_is_the_exact_one(self, kind):
        # finite_diff_check reads exact_loss_and_grad; at sigma = 0 on the
        # agent's whole local set it is loss_and_grad, the oracle's reference
        if kind == "quadratic":
            prob = make_problem(quad_spec(sigma=0.0))
        else:
            prob = make_problem(classification_spec(kind))
        rng = np.random.default_rng(8)
        for agent in range(prob.n_agents):
            params = rng.standard_normal(prob.dim)
            batch = prob.draw_batch(agent, rnd=5, batch_size=None)
            loss, grad = prob.loss_and_grad(agent, params, batch)
            exact_loss, exact_grad = prob.exact_loss_and_grad(agent, params)
            assert loss == exact_loss
            assert np.array_equal(grad, exact_grad)

    def test_eps_range_enforced(self):
        prob = make_problem(quad_spec())
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(prob, np.zeros(prob.dim), eps=1e-2)


class TestSpecValidation:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticProblemSpec(kind="quadratic", d=2, n_agents=2, zeta=-1.0)
        with pytest.raises(ValueError):
            SyntheticProblemSpec(kind="quadratic", d=2, n_agents=2, sigma=-0.1)
        with pytest.raises(ValueError):
            SyntheticProblemSpec(kind="quadratic", d=2, n_agents=2, L=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            SyntheticProblemSpec(kind="resnet", d=2, n_agents=2)

    def test_batch_is_frozen(self):
        b = Batch(indices=None, substream=(0, 0, 0))
        with pytest.raises(Exception):
            b.substream = (1, 1, 1)


def drawn_arrays(prob):
    """The arrays a problem holds from its spec's draw, by name."""
    if prob.kind == "quadratic":
        return {"b": prob.b, "x_star": prob.x_star}
    arrays = {
        name: getattr(prob, name)
        for name in ("features", "labels", "test_features", "test_labels")
    }
    arrays["_draw.means"] = prob._draw.means
    arrays.update({f"assignments[{i}]": a for i, a in enumerate(prob.assignments)})
    return arrays


def snapshot(prob):
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in drawn_arrays(prob).items()}


class TestSharedDraws:
    @pytest.mark.parametrize("kind", ["quadratic", "softmax", "mlp"])
    def test_equal_specs_share_read_only_arrays(self, kind):
        if kind == "quadratic":
            spec = quad_spec(seed=41)
        else:
            spec = classification_spec(kind, seed=41)
        first, second = make_problem(spec), make_problem(spec)
        ours = drawn_arrays(first)
        for name, array in drawn_arrays(second).items():
            assert array is ours[name], name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    def test_assigned_problem_shares_the_dataset(self):
        spec = classification_spec("softmax", seed=42)
        base = make_problem(spec)
        reversed_split = list(reversed(base.assignments))
        problem = make_problem(spec, assignments=reversed_split)
        assert problem.features is base.features and problem.labels is base.labels
        assert problem.assignments[0] is base.assignments[-1]

    @pytest.mark.parametrize("kind", ["quadratic", "softmax"])
    def test_entry_goes_with_the_last_problem(self, kind):
        spec = quad_spec(seed=43) if kind == "quadratic" else classification_spec(kind, seed=43)
        gc.collect()
        assert spec not in models._DRAWS
        first = make_problem(spec)
        drawn = snapshot(first)
        second = make_problem(spec)
        del first
        gc.collect()
        assert spec in models._DRAWS
        del second
        gc.collect()
        assert spec not in models._DRAWS
        assert snapshot(make_problem(spec)) == drawn

    @pytest.mark.parametrize(
        "change", [{"seed": 1}, {"n_samples": 401}, {"separation": 2.0}, {"n_agents": 5}]
    )
    def test_differing_specs_draw_their_own(self, change):
        spec = classification_spec("softmax", seed=44)
        other = dataclasses.replace(spec, **change)
        a, b = make_problem(spec), make_problem(other)
        assert models._DRAWS[spec] is not models._DRAWS[other]
        mine = drawn_arrays(a)
        for name, array in drawn_arrays(b).items():
            assert array is not mine.get(name), name
        if change == {"n_agents": 5}:
            # the same dataset, split over one more agent
            assert np.array_equal(a.features, b.features)
            assert len(a.assignments) == 4 and len(b.assignments) == 5

    @pytest.mark.parametrize(
        "spec, message",
        [
            (quad_spec(seed=45, zeta=1e200), "overflows the optima"),
            (classification_spec("softmax", seed=45, separation=1e308), "overflows the class means"),
        ],
    )
    def test_overflow_raises_and_registers_nothing(self, spec, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                make_problem(spec)
            assert spec not in models._DRAWS

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic", "softmax", "mlp"]),
        seed=st.integers(0, 2**64 - 1),
        d=st.integers(1, 5),
        n_agents=st.integers(2, 6),
        n_classes=st.integers(2, 4),
        n_samples=st.integers(12, 60),
        zeta=st.floats(0.0, 10.0),
        separation=st.floats(-5.0, 5.0),
    )
    def test_shared_build_equals_a_lone_build(
        self, kind, seed, d, n_agents, n_classes, n_samples, zeta, separation
    ):
        spec = SyntheticProblemSpec(
            kind=kind, d=d, n_agents=n_agents, zeta=zeta, seed=seed, n_classes=n_classes,
            n_samples=n_samples, separation=separation,
        )
        gc.collect()
        assert spec not in models._DRAWS
        alone = snapshot(make_problem(spec))
        gc.collect()
        twin = make_problem(spec)
        shared = make_problem(spec)
        assert shared._draw is twin._draw
        assert snapshot(shared) == alone


class TestAssignmentValidation:
    """Every assignment is a 1-D integer array of indices in [0, n_samples)."""

    SPEC = classification_spec("softmax", n_agents=2, n_samples=20, seed=46)

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_valid_assignments_accepted(self, kind):
        spec = dataclasses.replace(self.SPEC, kind=kind)
        problem = make_problem(spec, assignments=[np.arange(10), np.arange(10, 20, dtype=np.uint8)])
        assert [len(a) for a in problem.assignments] == [10, 10]

    def test_negative_index_rejected(self):
        # -1 would wrap to the last sample
        with pytest.raises(ValueError, match=r"agent 1 is assigned sample indices outside \[0, 20\)"):
            make_problem(self.SPEC, assignments=[np.arange(10), np.array([10, -1])])

    def test_float_indices_rejected(self):
        # the oracle's index table would truncate 0.5 to 0
        with pytest.raises(ValueError, match="agent 0's assignment must be a 1-D integer array"):
            make_problem(self.SPEC, assignments=[np.array([0.5, 1.0]), np.arange(2, 20)])

    def test_index_past_the_samples_rejected(self):
        # raised at construction, not at the first oracle call
        with pytest.raises(ValueError, match=r"agent 1 is assigned sample indices outside \[0, 20\)"):
            make_problem(self.SPEC, assignments=[np.arange(10), np.array([11, 25])])

    def test_two_dimensional_assignment_rejected(self):
        with pytest.raises(ValueError, match="agent 1's assignment must be a 1-D"):
            make_problem(self.SPEC, assignments=[np.arange(10), np.arange(10, 20).reshape(2, 5)])

    def test_one_assignment_per_agent(self):
        with pytest.raises(ValueError, match="one assignment per agent"):
            make_problem(self.SPEC, assignments=[np.arange(20)])


_OUTSIDE = "agent {} is assigned sample indices outside [0, 20)"
_SHAPE = (
    "agent {}'s assignment must be a 1-D integer array of sample indices,"
    " got shape {} and dtype {}"
)


class TestAssignmentPrecedence:
    """Inputs that fail in several agents and several ways: the first failing
    agent is reported, with the first of its checks that fails (no samples,
    then shape and dtype, then the index range), in full."""

    SPEC = classification_spec("softmax", n_agents=4, n_samples=20, seed=46)
    CASES = {
        "empty after out of range": (
            [np.arange(5), np.array([3, 25]), np.array([], dtype=int), np.arange(5, 10)],
            _OUTSIDE.format(1),
        ),
        "out of range after empty": (
            [np.arange(5), np.array([], dtype=int), np.array([3, 25]), np.arange(5, 10)],
            "agent 1 is assigned no samples",
        ),
        "2-D before empty and negative": (
            [np.arange(4).reshape(2, 2), np.array([], dtype=int), np.array([-1]), np.arange(5)],
            _SHAPE.format(0, (2, 2), "int64"),
        ),
        "float after valid, before negative": (
            [np.arange(5), np.arange(5, 10), np.array([0.5, 1.0]), np.array([-1])],
            _SHAPE.format(2, (2,), "float64"),
        ),
        "float holding out-of-range values": (
            [np.arange(5), np.array([-1.0, 30.0]), np.arange(5), np.arange(5)],
            _SHAPE.format(1, (2,), "float64"),
        ),
        "empty 2-D float": (
            [np.arange(5), np.arange(5), np.zeros((0, 3)), np.array([99])],
            "agent 2 is assigned no samples",
        ),
        "bool": (
            [np.arange(5), np.arange(5), np.arange(5), np.array([True])],
            _SHAPE.format(3, (1,), "bool"),
        ),
        "0-d": (
            [np.int64(3), np.array([], dtype=int), np.arange(5), np.arange(5)],
            _SHAPE.format(0, (), "int64"),
        ),
        "string": (
            [np.arange(5), np.array(["1"]), np.array([-1]), np.arange(5)],
            _SHAPE.format(1, (1,), "<U1"),
        ),
        "uint8 past the end after int32": (
            [np.arange(5, dtype=np.int32), np.array([30], np.uint8), np.array([-3]), np.arange(5)],
            _OUTSIDE.format(1),
        ),
        "uint64 maximum before int64 negative": (
            [np.arange(5), np.array([2**64 - 1], dtype=np.uint64), np.array([-1]), np.arange(5)],
            _OUTSIDE.format(1),
        ),
        "negative last": (
            [np.arange(5), np.arange(5), np.arange(20), np.array([0, -1, 3])],
            _OUTSIDE.format(3),
        ),
        "count before every agent": (
            [np.array([], dtype=int), np.array([-1]), np.zeros(3)],
            "expected one assignment per agent (4), got 3",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_failure_reported_in_full(self, case):
        assignments, message = self.CASES[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_problem(self.SPEC, assignments=assignments)

    def test_default_split_with_empty_agents_rejected(self):
        # 20 samples over 25 agents: the even split leaves agents 20-24 empty
        spec = dataclasses.replace(self.SPEC, n_agents=25)
        with pytest.raises(ValueError, match="^agent 20 is assigned no samples$"):
            make_problem(spec)
