"""The per-shape hierarchy cache and batch solves of JSAS configurations.

Parity of ``solve()`` with the interpreted oracle on every shape lives in
``tests/hierarchy/test_one_solve_path.py``.
"""

from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration


def test_hierarchy_cache_shared_between_equal_shapes():
    a = JsasConfiguration(n_instances=2, n_pairs=2)
    b = JsasConfiguration(n_instances=2, n_pairs=2)
    assert a.hierarchy() is b.hierarchy()
    assert a.compiled_hierarchy() is b.compiled_hierarchy()
    c = JsasConfiguration(n_instances=2, n_pairs=2, repair_policy="parallel")
    assert c.hierarchy() is not a.hierarchy()


def test_solve_batch_on_configuration():
    import numpy as np

    config = JsasConfiguration(n_instances=2, n_pairs=2)
    base = PAPER_PARAMETERS.to_dict()
    n = 5
    columns = dict(base)
    first = sorted(base)[0]
    columns[first] = base[first] * np.linspace(0.5, 1.5, n)
    solution = config.solve_batch(columns, n_samples=n)
    for s in range(n):
        values = dict(base)
        values[first] = float(columns[first][s])
        assert solution.result_at(s) == config.solve(values)
