"""The simulator against its per-period reference, its errors and its inputs.

``reference_generate`` below is a per-period loop over the draws of the
fixed order, written out here rather than through ``mal_sample``: the
generator is split by ``spawn(2)``, the first child draws every period's
standard normals and the second every mixing draw. Every panel must match it
byte for byte, and every failing scenario must fail at the same row, so it
also pins the draw order and a panel stays the same across versions. It
steps through ``dynamics.risk_step``, which the simulator writes out inline
in ``simulate._step_column``, so it also pins that copy to the rule. The
simulator steps one asset's column at a time; the precedence tests below
check that it still raises the error this loop meets first.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from quantes import dynamics as dyn
from quantes import simulate
from quantes.estimation import ParameterSet
from quantes.exceptions import PathError, ValidationError
from quantes.linalg import cholesky_with_jitter
from quantes.mal import MALConstraints, assemble_sigma
from quantes.simulate import FAMILIES, SimScenario, generate, reference_params

_BLOWUP = 1e6


# -- the per-period reference -------------------------------------------------


def _draw_raw(scenario, cons, chol, rng, total):
    """Every period's standardized shock, one row per period.

    The normals are correlated by one product over all rows, as the
    simulator does: a per-row ``chol @ z`` can round the last bit
    differently.
    """
    p = cons.p
    if scenario.error_family == "none":
        return np.zeros((total, p))
    z_rng, mix_rng = rng.spawn(2)
    z = z_rng.standard_normal((total, p)) @ chol.T
    if scenario.error_family == "student_t":
        g = mix_rng.chisquare(scenario.df, total)
        return [cons.xi_tilde + np.sqrt(scenario.df / g[t]) * z[t] for t in range(total)]
    w = mix_rng.exponential(1.0, total)
    return [cons.xi_tilde * w[t] + np.sqrt(w[t]) * z[t] for t in range(total)]


def reference_generate(scenario, replication=0):
    """Simulate one replication; returns a (T, p) matrix after burn-in.

    Each period steps every asset, then checks every quantile, then every
    scale, and raises at the first failure it meets, naming its column as
    :func:`simulate._path_error` does, a ``risk_step`` error included.
    """
    params = scenario.params
    p = params.p
    tau = scenario.tau
    cons = MALConstraints.from_levels(tau)
    chol = cholesky_with_jitter(assemble_sigma(params.psi, cons))
    rng = np.random.default_rng([int(scenario.seed), int(replication)])

    total = scenario.burn_in + scenario.T
    raw = _draw_raw(scenario, cons, chol, rng, total)
    y = np.empty((total, p))
    q = simulate._initial_state(params)
    x = np.array([link.x0 for link in params.links])
    es = np.array([dyn.shortfall(link, q[j], x[j]) for j, link in enumerate(params.links)])

    for t in range(total):
        if t > 0:
            for j, (spec, link) in enumerate(zip(params.specs, params.links)):
                try:
                    q[j], es[j], x[j] = dyn.risk_step(spec, link, q[j], y[t - 1, j], x[j])
                except PathError as exc:
                    raise simulate._path_error(
                        f"step failed ({exc})", j, t, scenario.burn_in
                    ) from exc
        bad = np.flatnonzero(~((np.abs(q) <= _BLOWUP) & (q < 0.0)))
        if bad.size:
            raise simulate._path_error(
                "quantile path left the valid region", bad[0], t, scenario.burn_in
            )

        delta = tau * (0.0 - es)
        bad = np.flatnonzero(~(delta > 0.0))
        if bad.size:
            raise simulate._path_error(
                "scale path became non-positive", bad[0], t, scenario.burn_in
            )
        y[t] = q + delta * raw[t]

    return y[scenario.burn_in :]


# -----------------------------------------------------------------------------


def _outcome(gen, scenario, replication):
    """The panel's bytes, or the row at which the run fails."""
    try:
        return gen(scenario, replication).tobytes()
    except PathError as exc:
        return ("PathError", exc.index)


def _blowup_params(p=2, column=1):
    """SAV/MULT truth whose ``column`` has eta = 1.05, so its quantile grows
    geometrically until it leaves the valid region."""
    truth = reference_params(dyn.SAV, dyn.MULT, p)
    specs = list(truth.specs)
    specs[column] = dyn.CaviarSpec(dyn.SAV, -0.2, 1.05, [-0.1])
    return ParameterSet(specs=tuple(specs), links=truth.links, psi=truth.psi)


def _error(gen, scenario):
    """Type, index and message of the PathError that ``gen`` raises."""
    with pytest.raises(PathError) as err:
        gen(scenario)
    return type(err.value), err.value.index, str(err.value)


def _poisoned_step(period, poison):
    """``dyn.risk_step`` whose step into ``period`` returns the (q, es) pair
    ``poison[id(spec)]`` instead, or raises it if it is an exception, for the
    specs it names; steps are counted per asset."""
    step = dyn.risk_step
    counts = {}

    def poisoned(spec, link, q, y, x):
        n = counts[id(spec)] = counts.get(id(spec), 0) + 1
        if n == period and id(spec) in poison:
            bad = poison[id(spec)]
            if isinstance(bad, Exception):
                raise bad
            return (*bad, x)
        return step(spec, link, q, y, x)

    return poisoned


_RADICAND = PathError("non-positive radicand in indirect-GARCH step")
# what ``simulate._step_column`` reports for a failure at each stage
_WHAT = {0: f"step failed ({_RADICAND})", 1: "quantile path left the valid region",
         2: "scale path became non-positive"}


def _chosen_failures(failures):
    """``simulate._step_column`` that steps each column as usual, then reports
    the failure at (row, stage) ``failures[id(spec)]`` for the specs it names;
    the row must lie inside the rows it was asked to step."""
    step_column = simulate._step_column

    def chosen(spec, link, tau, q, col, stop):
        found = step_column(spec, link, tau, q, col, stop)
        if id(spec) not in failures:
            return found
        row, stage = failures[id(spec)]
        assert found is None and row < stop
        return row, stage, _WHAT[stage]

    return chosen


@pytest.mark.parametrize(
    "kind,link,family", list(itertools.product(dyn.KINDS, dyn.LINKS, FAMILIES))
)
def test_generate_is_the_per_period_loop_byte_for_byte(kind, link, family):
    failed = 0
    for p, burn_in in itertools.product((1, 2, 3, 5), (0, 200)):
        scenario = SimScenario(
            params=reference_params(kind, link, p),
            tau=np.linspace(0.05, 0.15, p),
            T=250,
            error_family=family,
            df=4.0,
            burn_in=burn_in,
            seed=p,
        )
        got = _outcome(generate, scenario, burn_in)
        assert got == _outcome(reference_generate, scenario, burn_in), (p, burn_in)
        failed += isinstance(got, tuple)
    # the comparison is of panels, not only of matching failures
    assert failed < 8


@pytest.mark.parametrize("kind,link", list(itertools.product(dyn.KINDS, dyn.LINKS)))
def test_a_long_panel_is_the_per_period_loop_byte_for_byte(kind, link):
    # thousands of steps per asset, so AR offsets and IG radicands are
    # compared far down their recursions
    scenario = SimScenario(params=reference_params(kind, link, 3), tau=np.full(3, 0.1),
                           T=2000, burn_in=200, seed=13)
    got = generate(scenario, 1)
    assert got.tobytes() == reference_generate(scenario, 1).tobytes()
    assert got.shape == (2000, 3)


@pytest.mark.parametrize("burn_in", [0, 50])
def test_blowup_raises_at_the_reference_row(burn_in):
    scenario = SimScenario(params=_blowup_params(), tau=np.full(2, 0.1), T=500,
                           burn_in=burn_in, seed=3)
    with pytest.raises(PathError) as ref:
        reference_generate(scenario)
    with pytest.raises(PathError) as got:
        generate(scenario)
    assert got.value.index == ref.value.index
    assert 0 < got.value.index < 500


def test_an_earlier_row_in_a_later_column_fails_first():
    params = _blowup_params(p=2, column=0)
    specs = (params.specs[0], dyn.CaviarSpec(dyn.SAV, -0.2, 1.2, [-0.1]))
    both = ParameterSet(specs=specs, links=params.links, psi=params.psi)
    tau = np.full(2, 0.1)
    alone = _error(generate, SimScenario(params=params, tau=tau, T=500, burn_in=0, seed=3))
    scenario = SimScenario(params=both, tau=tau, T=500, burn_in=0, seed=3)
    got = _error(generate, scenario)
    assert got == _error(reference_generate, scenario)
    assert "column 1 " in got[2] and got[1] < alone[1]


@pytest.mark.parametrize(
    "lower,higher,index,message",
    [(((-1.0, math.nan), 2), ((math.nan, -1.0), 1), 5,
      "quantile path left the valid region in column 1 "),
     (((math.nan, -1.0), 1), ((-1.0, math.nan), 2), 5,
      "quantile path left the valid region in column 0 "),
     (((math.nan, math.nan), 1), (_RADICAND, 0), 5, f"step failed ({_RADICAND}) in column 1 ")],
    ids=["scale-then-quantile", "quantile-then-scale", "quantile-then-risk-step"],
)
def test_on_one_row_risk_step_then_quantile_then_scale_fails_first(
    monkeypatch, lower, higher, index, message
):
    # both assets fail in their step into row 5: asset 0 as ``lower``, asset 1
    # as ``higher``, each a (poison, stage) pair. The reference meets the
    # poisoned ``risk_step``; the simulator's column helper reports the stage
    # that poison fails at
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=20,
                           burn_in=0, seed=1)
    specs = scenario.params.specs
    poison = {id(spec): bad for spec, (bad, _) in zip(specs, (lower, higher))}
    monkeypatch.setattr(dyn, "risk_step", _poisoned_step(5, poison))
    stages = {id(spec): (5, stage) for spec, (_, stage) in zip(specs, (lower, higher))}
    monkeypatch.setattr(simulate, "_step_column", _chosen_failures(stages))
    errors = [_error(gen, scenario) for gen in (reference_generate, generate)]
    assert errors[1] == errors[0]
    assert errors[1][1] == index and message in errors[1][2]


def test_a_zero_radicand_fails_the_step_as_risk_step_does():
    # -sqrt(0) would be -0.0, which the quantile check also rejects, but at
    # the next stage: the step itself must fail first
    spec, link = dyn.CaviarSpec(dyn.IG, 0.0, 0.0, [0.0]), dyn.ESLink(dyn.MULT, gamma0=-1.1)
    with pytest.raises(PathError, match=str(_RADICAND)):
        dyn.risk_step(spec, link, -1.0, 0.3, 0.0)
    assert simulate._step_column(spec, link, 0.1, -1.0, [0.3] * 5, 5) == (1, 0, _WHAT[0])


@pytest.mark.parametrize("beta,radicand_first", [(0.2, True), (0.1, False)])
def test_a_radicand_error_in_a_later_column_keeps_its_row_order(beta, radicand_first):
    # asset 1's negative eta drives its radicand below zero in its step into
    # row 43 (beta 0.2) or row 202 (beta 0.1); asset 0 leaves the valid
    # region at row 94
    params = _blowup_params(p=2, column=0)
    specs = (params.specs[0], dyn.CaviarSpec(dyn.IG, 0.01, -0.5, [beta]))
    scenario = SimScenario(params=ParameterSet(specs=specs, links=params.links,
                                               psi=params.psi),
                           tau=np.full(2, 0.1), T=500, burn_in=0, seed=3)
    got = _error(generate, scenario)
    assert got == _error(reference_generate, scenario)
    if radicand_first:
        assert got[1] == 43
        assert "step failed (non-positive radicand in indirect-GARCH step) in column 1 " in got[2]
    else:
        assert got[1] == 94 and "column 0 " in got[2]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("family", ["normal", "student_t"])
def test_a_shorter_panel_is_a_prefix_of_a_longer_one(family, p):
    def panel(T):
        return generate(SimScenario(params=reference_params(dyn.SAV, dyn.AR, p),
                                    tau=np.full(p, 0.1), T=T, error_family=family,
                                    burn_in=0, seed=11), 2)

    assert panel(300).tobytes() == panel(1777)[:300].tobytes()


def test_path_errors_name_the_column_and_the_burn_in():
    tau = np.full(3, 0.1)
    params = _blowup_params(p=3, column=2)
    with pytest.raises(PathError) as short:
        generate(SimScenario(params=params, tau=tau, T=500, burn_in=0, seed=3))
    index = short.value.index
    assert "column 2 " in str(short.value)
    assert f"at returned row {index} " in str(short.value)

    with pytest.raises(PathError) as long:
        generate(SimScenario(params=params, tau=tau, T=500, burn_in=index + 10, seed=3))
    assert long.value.index == index
    assert "column 2 " in str(long.value)
    assert f"in the {index + 10}-row burn-in" in str(long.value)
    assert f"row {index} of the full run" in str(long.value)


@pytest.mark.parametrize(
    "what,index", [("quantile path", 4), ("scale path", 0)], ids=["nan-quantile", "nan-scale"]
)
def test_nan_paths_are_rejected(monkeypatch, what, index):
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=20,
                           burn_in=0, seed=1)
    spec, link = scenario.params.specs[0], scenario.params.links[0]
    step_column = simulate._step_column
    if what == "quantile path":
        # a NaN shock in asset 0's row 3 makes its step into row 4 NaN
        draw = simulate._draw_shocks

        def nan_shock(*args):
            e = draw(*args)
            e[3, 0] = math.nan
            return e

        monkeypatch.setattr(simulate, "_draw_shocks", nan_shock)
    else:
        # no real input makes a scale NaN before its quantile: a NaN level or
        # link factor does, from row 0 on
        nan_factor = SimpleNamespace(kind=dyn.MULT, factor=math.nan, coef=link.coef, x0=0.0)
        for tau, bad_link in ((math.nan, link), (0.1, nan_factor)):
            assert step_column(spec, bad_link, tau, -1.0, [0.5] * 20, 20) == (
                0, 2, "scale path became non-positive")

        def nan_level(spec_j, link_j, tau, *rest):
            return step_column(spec_j, link_j, math.nan if spec_j is spec else tau, *rest)

        monkeypatch.setattr(simulate, "_step_column", nan_level)
    with pytest.raises(PathError, match=f"{what} .* column 0 ") as err:
        generate(scenario)
    assert err.value.index == index


@pytest.mark.parametrize(
    "field,value",
    [
        ("T", 4.5),
        ("T", 100.0),
        ("T", True),
        ("T", "100"),
        ("burn_in", 2.5),
        ("burn_in", False),
        ("B", 3.0),
        ("B", True),
        ("seed", 1.7),
        ("seed", 1.0),
        ("seed", True),
    ],
)
def test_scenario_rejects_non_integer_counts(field, value):
    kwargs = {"params": reference_params(p=2), "tau": np.full(2, 0.1), "T": 50}
    kwargs[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        SimScenario(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("T", 0), ("T", -5), ("burn_in", -1), ("B", 0), ("seed", -1), ("seed", np.int64(-2))],
)
def test_scenario_rejects_counts_below_their_floor(field, value):
    low = {"T": 1, "burn_in": 0, "B": 1, "seed": 0}[field]
    kwargs = {"params": reference_params(p=2), "tau": np.full(2, 0.1), "T": 50}
    kwargs[field] = value
    with pytest.raises(ValidationError) as err:
        SimScenario(**kwargs)
    assert str(err.value) == f"{field} must be at least {low}, got {int(value)}"
    kwargs[field] = low
    assert getattr(SimScenario(**kwargs), field) == low


@pytest.mark.parametrize(
    "p,message",
    [(0, "p must be at least 1, got 0"), (-2, "p must be at least 1, got -2"),
     (True, "p must be an integer, got True"), (2.5, "p must be an integer, got 2.5"),
     (2.0, "p must be an integer, got 2.0")],
)
def test_reference_params_rejects_a_bad_dimension(p, message):
    with pytest.raises(ValidationError) as err:
        reference_params(p=p)
    assert str(err.value) == message
    assert reference_params(p=np.int64(2)).p == 2


@pytest.mark.parametrize(
    "n_jobs,message",
    [(0, "n_jobs must be at least 1, got 0"), (-1, "n_jobs must be at least 1, got -1"),
     (1.5, "n_jobs must be an integer, got 1.5"), (True, "n_jobs must be an integer, got True")],
)
def test_run_study_rejects_a_bad_worker_count(monkeypatch, n_jobs, message):
    def no_run(*args):
        raise AssertionError("a replication ran with a bad worker count")

    monkeypatch.setattr(simulate, "_study_worker", no_run)
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=50, B=2)
    with pytest.raises(ValidationError) as err:
        simulate.run_study(scenario, n_jobs=n_jobs)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "specs,links,message",
    [((dyn.SAV, dyn.IG), (dyn.MULT, dyn.MULT), "asset 2 is ig/mult, asset 1 is sav/mult"),
     ((dyn.AS, dyn.AS, dyn.SAV), (dyn.MULT, dyn.AR, dyn.MULT),
      "asset 2 is as/ar, asset 1 is as/mult")],
)
def test_run_study_rejects_a_scenario_that_mixes_kinds(monkeypatch, specs, links, message):
    # run_study fits every asset with asset 1's kinds, so a mixed truth would
    # be scored against estimates of another model
    def no_run(*args):
        raise AssertionError("a replication ran for a mixed scenario")

    monkeypatch.setattr(simulate, "_study_worker", no_run)
    p = len(specs)
    truth = [reference_params(kind, link, p) for kind, link in zip(specs, links)]
    params = ParameterSet(specs=[t.specs[j] for j, t in enumerate(truth)],
                          links=[t.links[j] for j, t in enumerate(truth)], psi=truth[0].psi)
    scenario = SimScenario(params=params, tau=np.full(p, 0.1), T=50, B=1)
    with pytest.raises(ValidationError) as err:
        simulate.run_study(scenario, n_jobs=1)
    assert str(err.value) == f"run_study fits one recursion and link for every asset: {message}"


@pytest.mark.parametrize("family", ["student_t", "normal"])
@pytest.mark.parametrize("df", [math.inf, math.nan, "5", None, True, False])
def test_scenario_rejects_non_finite_df(family, df):
    # a bool or a non-number is no df, as a bool is no count
    message = "df must be finite" if type(df) is float else f"df must be a real number, got {df!r}"
    with pytest.raises(ValidationError) as err:
        SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=50,
                    error_family=family, df=df)
    assert str(err.value) == message
    for real in (5, np.int64(5), np.float32(5.0)):
        scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=50,
                               error_family=family, df=real)
        assert type(scenario.df) is float and scenario.df == 5.0


def test_numpy_integer_counts_give_the_same_panel():
    params = reference_params(p=2)
    plain = SimScenario(params=params, tau=np.full(2, 0.1), T=60, burn_in=20, B=3, seed=3)
    numpy = SimScenario(params=params, tau=np.full(2, 0.1), T=np.int64(60),
                        burn_in=np.int32(20), B=np.int64(3), seed=np.int64(3))
    assert type(numpy.T) is int and type(numpy.burn_in) is int and type(numpy.B) is int
    assert type(numpy.seed) is int
    assert generate(numpy, np.int64(3)).tobytes() == generate(plain, 3).tobytes()


@pytest.mark.parametrize("replication", [2.9, 2.0, True, "2"])
def test_generate_rejects_a_non_integer_replication(replication):
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=50)
    with pytest.raises(ValidationError, match="replication must be an integer"):
        generate(scenario, replication)


@pytest.mark.parametrize("replication", [-1, np.int64(-7)])
def test_generate_rejects_a_negative_replication(replication):
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, 0.1), T=50)
    with pytest.raises(ValidationError) as err:
        generate(scenario, replication)
    assert str(err.value) == f"replication must be at least 0, got {int(replication)}"
