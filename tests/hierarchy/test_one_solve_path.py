"""Differential test: the one hierarchical solve path vs. its oracle.

``HierarchicalModel.solve`` runs the cached compiled hierarchy as a
one-sample batch.  The interpreted composer it replaced survives as
``composer._solve_interpreted``, used only by tests, so every shape the
library solves is held to what the interpreted path computes:

* ``method="direct"`` on every shape and ``method="auto"`` on the
  paper's shapes (``n_instances <= 10``): bit-identical systems,
  submodel reports and bound parameters;
* ``method="auto"`` on larger shapes, where the compiled path takes the
  batch banded kernel and the oracle the scalar banded solver: every
  state probability within the tolerance ``tests/kernels/`` holds the
  banded solvers to.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.exceptions import SolverError
from repro.hierarchy import composer
from repro.hierarchy.composer import _solve_interpreted
from repro.models.jsas import (
    PAPER_PARAMETERS,
    UNCERTAINTY_RANGES,
    HierarchicalConfigMetric,
    JsasConfiguration,
    compare_configurations,
    optimal_configuration,
    plan_configuration,
)
from repro.selfmodel.model import build_cluster_hierarchy
from repro.selfmodel.topology import ClusterTopology

#: Table 3's rows and every paper-sized shape in between.
PAPER_SHAPES = ((1, 0),) + tuple((n, n) for n in range(2, 11))
#: The larger shapes of the library-study workload (banded AS chains).
TAIL_SHAPES = ((11, 2), (12, 3), (13, 4), (14, 2), (15, 3), (16, 4))
ABSTRACTIONS = ("mttf", "flow")
#: Per-state tolerance of the banded solvers: |a - b| <= atol + rtol*|b|.
BANDED_ATOL = 1e-14
BANDED_RTOL = 1e-10


def drawn_values(seed):
    """Paper parameters with the uncertain rates drawn from their ranges."""
    rng = np.random.default_rng(seed)
    values = PAPER_PARAMETERS.to_dict()
    for name in ("La_as", "Tstart_long_as", "FIR"):
        values[name] = float(rng.uniform(*UNCERTAINTY_RANGES[name]))
    return values


def assert_bit_identical(got, expected):
    assert got.system == expected.system
    assert got.submodels == expected.submodels
    assert got.bound_parameters == expected.bound_parameters


def assert_states_within_banded_tolerance(got, expected):
    pairs = [(got.system, expected.system)] + [
        (got.submodels[key].interface.detail,
         expected.submodels[key].interface.detail)
        for key in expected.submodels
    ]
    assert set(got.submodels) == set(expected.submodels)
    for ours, theirs in pairs:
        ours = ours.state_probabilities
        theirs = theirs.state_probabilities
        assert ours.keys() == theirs.keys()
        outside = {
            state: (ours[state], theirs[state])
            for state in theirs
            if abs(ours[state] - theirs[state])
            > BANDED_ATOL + BANDED_RTOL * abs(theirs[state])
        }
        assert not outside


def oracle(config, values, method, abstraction):
    return _solve_interpreted(
        config.build_hierarchy(),
        config.merged_values(values),
        method=method,
        abstraction=abstraction,
    )


@pytest.mark.parametrize("shape", PAPER_SHAPES, ids=str)
def test_paper_shapes_match_oracle(shape):
    config = JsasConfiguration(*shape)
    for seed in (None, 2004):
        values = (
            PAPER_PARAMETERS.to_dict() if seed is None else drawn_values(seed)
        )
        for method in ("direct", "auto"):
            for abstraction in ABSTRACTIONS:
                assert_bit_identical(
                    config.solve(
                        values, method=method, abstraction=abstraction
                    ),
                    oracle(config, values, method, abstraction),
                )


@pytest.mark.parametrize("shape", TAIL_SHAPES, ids=str)
def test_tail_shapes_match_oracle(shape):
    config = JsasConfiguration(*shape)
    values = drawn_values(sum(shape))
    for abstraction in ABSTRACTIONS:
        assert_bit_identical(
            config.solve(values, method="direct", abstraction=abstraction),
            oracle(config, values, "direct", abstraction),
        )
        assert_states_within_banded_tolerance(
            config.solve(values, abstraction=abstraction),
            oracle(config, values, "auto", abstraction),
        )


@pytest.mark.parametrize("repair_policy", ("sequential", "parallel"))
@pytest.mark.parametrize("n_spares", (0, 2))
@pytest.mark.parametrize("shape", ((2, 2), (4, 4), (11, 2)), ids=str)
def test_repair_policy_and_spares_match_oracle(shape, n_spares, repair_policy):
    config = JsasConfiguration(
        *shape, n_spares=n_spares, repair_policy=repair_policy
    )
    values = drawn_values(7)
    for abstraction in ABSTRACTIONS:
        assert_bit_identical(
            config.solve(values, method="direct", abstraction=abstraction),
            oracle(config, values, "direct", abstraction),
        )
        got = config.solve(values, abstraction=abstraction)
        expected = oracle(config, values, "auto", abstraction)
        if shape[0] <= 10:
            assert_bit_identical(got, expected)
        else:
            assert_states_within_banded_tolerance(got, expected)


@pytest.mark.parametrize("include_cache", (False, True))
@pytest.mark.parametrize("include_workers", (False, True))
def test_cluster_hierarchy_matches_oracle(include_workers, include_cache):
    topology = ClusterTopology(
        n_shards=3, quorum=2, worker_processes=2, cache_size=8
    )
    hierarchy = build_cluster_hierarchy(
        topology, include_workers=include_workers, include_cache=include_cache
    )
    values = {"La_shard": 2.0, "Mu_detect": 600.0, "Mu_restore": 120.0}
    if include_workers:
        values.update(La_worker=4.0, Mu_worker=900.0)
    if include_cache:
        values.update(La_cache=2.0, Mu_cache=30.0)
    for method in ("direct", "auto"):
        for abstraction in ABSTRACTIONS:
            assert_bit_identical(
                hierarchy.solve(
                    values, method=method, abstraction=abstraction
                ),
                _solve_interpreted(
                    hierarchy, values, method=method, abstraction=abstraction
                ),
            )


def test_compare_configurations_rows_match_oracle():
    rows = compare_configurations()
    for row in rows:
        config = JsasConfiguration(row.n_instances, row.n_pairs)
        expected = oracle(config, PAPER_PARAMETERS, "auto", "mttf")
        assert_bit_identical(row.result, expected)
        assert row.availability == expected.availability
        assert row.yearly_downtime_minutes == expected.yearly_downtime_minutes
        assert row.mtbf_hours == expected.mtbf_hours
    # The paper's conclusion: 4 AS + 4 pairs wins.
    best = optimal_configuration(rows)
    assert (best.n_instances, best.n_pairs) == (4, 4)


def test_engine_option_is_gone():
    with pytest.raises(TypeError, match="engine"):
        compare_configurations(engine="scalar")
    with pytest.raises(TypeError, match="engine"):
        plan_configuration(0.99999, engine="scalar")
    for command in ("solve", "table3", "sweep", "uncertainty", "plan"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "scalar"])


def test_every_scalar_entry_point_runs_the_compiled_batch(monkeypatch):
    sizes = []
    batch = composer.CompiledHierarchy.solve_batch

    def counting_batch(compiled, values, n_samples=None, **kwargs):
        sizes.append(n_samples)
        return batch(compiled, values, n_samples=n_samples, **kwargs)

    monkeypatch.setattr(
        composer.CompiledHierarchy, "solve_batch", counting_batch
    )
    monkeypatch.setattr(
        composer, "abstract_submodel",
        lambda *a, **k: pytest.fail("the interpreted path ran"),
    )
    config = JsasConfiguration(2, 2)
    values = PAPER_PARAMETERS.to_dict()
    config.solve(values)
    config.build_hierarchy().solve(config.merged_values(values))
    HierarchicalConfigMetric(config)(values)
    assert sizes == [1, 1, 1]


def test_configuration_solve_reuses_the_shape_cache(monkeypatch):
    config = JsasConfiguration(3, 3)
    config.solve(PAPER_PARAMETERS)
    compiled = config.compiled_hierarchy()
    monkeypatch.setattr(
        JsasConfiguration, "build_hierarchy",
        lambda self: pytest.fail("solve() rebuilt a cached shape"),
    )
    JsasConfiguration(3, 3).solve(PAPER_PARAMETERS)
    assert config.compiled_hierarchy() is compiled


def test_hierarchy_methods_are_the_batch_methods():
    config = JsasConfiguration(2, 2)
    with pytest.raises(SolverError, match="unknown batch steady-state"):
        config.solve(PAPER_PARAMETERS, method="power")
