"""Mode / snapshot / plane rules, enumerated from the table itself.

:data:`repro.experiments.parallel.PLANES` is the one declaration of
what each instrumentation plane needs (full engine, cold build, the
cell-observer slot).  Every case below is generated from its rows:
all modes x snapshot settings x subsets of planes, with the expected
outcome worked out here from the columns alone and compared with what
:func:`resolve_execution` — and the three entry points that call it —
actually do.  Adding a plane or flipping a column re-generates the
matrix; nothing in this file names a plane by hand except the kwargs
needed to switch it on.
"""

import itertools

import pytest

from repro import api
from repro.experiments import fig6
from repro.experiments import parallel
from repro.experiments.parallel import (PLANES, apply_mode, execute,
                                        resolve_execution)
from repro.faults.plan import FaultPlan

MODES = ("full", "replay", "auto")
SNAPSHOTS = ("off", "on", "auto")
SUBSETS = [subset for n in range(len(PLANES) + 1)
           for subset in itertools.combinations(PLANES, n)]
MATRIX = list(itertools.product(MODES, SNAPSHOTS, SUBSETS))

SCALE = dict(nkeys=1000, cgroup_pages=64, nops=300, warmup_ops=100,
             nthreads=2, zipf_theta=1.1)


def one_cell():
    return fig6.plan(quick=True, policies=("mru",), workloads=("C",),
                     scale=dict(fig6.QUICK_SCALE, **SCALE))


def expected(mode, snapshot, planes):
    """``("conflict", planes named, alternative)`` or ``("ok", mode,
    snapshot, planes a fallback reason must name)`` from the columns."""
    claimers = [p for p in planes if PLANES[p].observer]
    if len(claimers) > 1 and any(PLANES[p].cold_build for p in claimers):
        return "conflict", claimers[:2], "without"
    full = [p for p in planes if PLANES[p].full_engine]
    cold = [p for p in planes if PLANES[p].cold_build]
    if full and mode == "replay":
        return "conflict", full[:1], "mode='full'"
    if cold and snapshot == "on":
        return "conflict", cold[:1], "snapshot=False"
    fell_back = []
    if mode == "auto":
        mode = "full" if full else "replay"
        fell_back += full
    if snapshot == "auto":
        snapshot = "off" if cold else "on"
        fell_back += cold
    return "ok", mode, snapshot, fell_back


def plane_kwargs(planes):
    """``api.run`` keywords switching exactly ``planes`` on."""
    values = {"faults": FaultPlan(seed=1), "trace": True,
              "breakdown": True, "timeseries": 2_000.0}
    assert set(values) == set(PLANES)
    return {plane: values[plane] for plane in planes}


def case_id(case):
    mode, snapshot, planes = case
    return f"{mode}-{snapshot}-{'+'.join(planes) or 'none'}"


CONFLICTS = [c for c in MATRIX if expected(*c)[0] == "conflict"]
NO_FAULTS = [c for c in CONFLICTS if "faults" not in c[2]]


def assert_names(message, planes, alternative):
    for plane in planes:
        assert plane in message
    assert alternative in message


class TestResolver:
    @pytest.mark.parametrize("case", MATRIX, ids=case_id)
    def test_matches_the_table(self, case):
        mode, snapshot, planes = case
        want = expected(*case)
        if want[0] == "conflict":
            with pytest.raises(ValueError) as err:
                resolve_execution(mode, snapshot, planes)
            assert_names(str(err.value), want[1], want[2])
            return
        got_mode, got_snapshot, reason = resolve_execution(
            mode, snapshot, planes)
        assert (got_mode, got_snapshot) == want[1:3]
        if want[3]:
            assert reason.startswith("auto: ")
            for plane in want[3]:
                assert plane in reason
        else:
            assert reason is None

    def test_settled_answers_are_fixed_points(self):
        for case in MATRIX:
            if expected(*case)[0] == "ok":
                mode, snapshot, _ = resolve_execution(*case)
                assert resolve_execution(mode, snapshot, case[2]) \
                    == (mode, snapshot, None)

    def test_bool_snapshot_spellings(self):
        assert resolve_execution("full", True)[1] == "on"
        assert resolve_execution("full", False)[1] == "off"
        assert resolve_execution("full", None)[1] == "off"
        with pytest.raises(ValueError, match="unknown snapshot"):
            resolve_execution("full", "sometimes")


class TestEntryPoints:
    """Explicit conflicts raise the resolver's message from every door."""

    @pytest.mark.parametrize("case", CONFLICTS, ids=case_id)
    def test_api_run_refuses(self, case):
        mode, snapshot, planes = case
        _, named, alternative = expected(*case)
        with pytest.raises(ValueError) as err:
            api.run(one_cell(), mode=mode, snapshot=snapshot,
                    **plane_kwargs(planes))
        assert_names(str(err.value), named, alternative)

    @pytest.mark.parametrize("case", NO_FAULTS, ids=case_id)
    def test_execute_and_apply_mode_refuse(self, case):
        mode, snapshot, planes = case
        _, named, alternative = expected(*case)
        kwargs = plane_kwargs(planes)
        with pytest.raises(ValueError) as err:
            execute(one_cell(), serial=True, mode=mode,
                    snapshot=snapshot, **kwargs)
        assert_names(str(err.value), named, alternative)
        if alternative == "mode='full'":
            with pytest.raises(ValueError) as err:
                apply_mode(one_cell(), mode, **dict.fromkeys(planes, True))
            assert_names(str(err.value), named, alternative)

    @pytest.mark.parametrize("case", NO_FAULTS, ids=case_id)
    def test_cli_refuses(self, case, tmp_path, capsys):
        mode, snapshot, planes = case
        _, named, alternative = expected(*case)
        flags = {"trace": ["--trace"],
                 "breakdown": ["--breakdown", str(tmp_path / "b.json")],
                 "timeseries": ["--timeseries", str(tmp_path / "t.jsonl")]}
        argv = ["fig6", "--quick", "--serial", "--cells", "C/mru",
                "--mode", mode, "--snapshot", snapshot]
        for plane in planes:
            argv += flags[plane]
        with pytest.raises(SystemExit) as err:
            parallel.main(argv)
        assert err.value.code == 2
        assert_names(capsys.readouterr().err, named, alternative)
        assert not list(tmp_path.iterdir())


AUTO = [c for c in MATRIX if c[0] == "auto" and c[1] == "auto"
        and expected(*c)[0] == "ok"]


class TestAutoRuns:
    """``auto`` never refuses a runnable combination: it runs, on the
    tier the table says, and says why when that was a fallback."""

    @pytest.mark.parametrize("case", AUTO, ids=case_id)
    def test_runs_and_reports_the_choice(self, case):
        mode, snapshot, planes = case
        _, want_mode, want_snapshot, fell_back = expected(*case)
        report = api.run(one_cell(), mode=mode, snapshot=snapshot,
                         **plane_kwargs(planes))
        assert report.result.rows
        assert (report.mode, report.snapshot) == (want_mode,
                                                  want_snapshot)
        assert (report.fallback_reason is None) == (not fell_back)
        for plane in fell_back:
            assert plane in report.fallback_reason
        header = report.format_timings().splitlines()[0]
        assert f"mode={want_mode}, snapshot={want_snapshot}" in header
        if fell_back:
            assert f"({report.fallback_reason})" in header
        # Every requested plane delivered its artifact.
        for plane in ("trace", "breakdown", "timeseries"):
            assert bool(getattr(report, plane)) == (plane in planes)

    def test_header_names_the_fallback(self):
        report = api.run(one_cell(), mode="auto", timeseries=2_000.0)
        assert report.format_timings().startswith(
            "[1 cells, jobs=1, mode=full, snapshot=off "
            "(auto: timeseries needs the full engine), wall ")


class TestRemovedTier:
    def test_unknown_everywhere(self, capsys):
        removed = "scan"
        match = f"unknown execution mode {removed!r}"
        with pytest.raises(ValueError, match=match):
            api.run(one_cell(), mode=removed)
        with pytest.raises(ValueError, match=match):
            execute(one_cell(), serial=True, mode=removed)
        with pytest.raises(ValueError, match=match):
            api.MachineConfig(mode=removed).build()
        with pytest.raises(SystemExit):
            parallel.main(["fig6", "--quick", "--mode", removed])
        assert match in capsys.readouterr().err
