"""Mode / snapshot / plane rules, enumerated from the table itself.

:data:`repro.experiments.parallel.PLANES` is the one declaration of
what each instrumentation plane needs — whether it needs the full
engine, the one column left now that planes share an observer chain
and attach to restored machines.  Every case below is generated from
its rows: all modes x snapshot settings x subsets of planes, with the
expected outcome worked out here from the column alone and compared
with what :func:`resolve_execution` — and the three entry points that
call it — actually do.  Adding a plane or flipping its entry
re-generates the matrix; nothing in this file names a plane by hand
except the values needed to switch it on.
"""

import itertools

import pytest

from repro import api
from repro.experiments import fig6
from repro.experiments import parallel
from repro.experiments.parallel import (PLANES, apply_mode, execute,
                                        resolve_execution)
from repro.faults.plan import FaultPlan

#: What switches each plane on, at every door that takes keywords.
#: Case ids list planes in this order (the table's own order changed
#: with ISSUE 19; the ids did not, so runs stay comparable across PRs).
VALUES = {"faults": FaultPlan(seed=1), "breakdown": True,
          "timeseries": 2_000.0, "trace": True}
assert set(VALUES) == set(PLANES)

MODES = ("full", "replay", "auto")
SNAPSHOTS = ("off", "on", "auto")
SUBSETS = [subset for n in range(len(VALUES) + 1)
           for subset in itertools.combinations(VALUES, n)]
MATRIX = list(itertools.product(MODES, SNAPSHOTS, SUBSETS))

SCALE = dict(nkeys=1000, cgroup_pages=64, nops=300, warmup_ops=100,
             nthreads=2, zipf_theta=1.1)


def one_cell():
    return fig6.plan(quick=True, policies=("mru",), workloads=("C",),
                     scale=dict(fig6.QUICK_SCALE, **SCALE))


def expected(mode, snapshot, planes):
    """``("conflict", planes named, alternative)`` or ``("ok", mode,
    snapshot, planes a fallback reason must name)`` from the column."""
    full = [p for p in PLANES if p in planes and PLANES[p]]
    if full and mode == "replay":
        return "conflict", full[:1], "mode='full'"
    fell_back = []
    if mode == "auto":
        mode = "full" if full else "replay"
        fell_back = full
    return "ok", mode, "off" if snapshot == "off" else "on", fell_back


def plane_kwargs(planes):
    """``api.run`` / ``execute`` keywords switching exactly ``planes``
    on."""
    return {plane: VALUES[plane] for plane in planes}


def case_id(case):
    mode, snapshot, planes = case
    return f"{mode}-{snapshot}-{'+'.join(planes) or 'none'}"


CONFLICTS = [c for c in MATRIX if expected(*c)[0] == "conflict"]


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


def assert_delivered(report, planes):
    """Every requested observing plane filed its artifact, no other
    did (``faults`` yields none)."""
    for plane in PLANES:
        if plane != "faults":
            assert bool(getattr(report, plane)) == (plane in planes)


#: The planes the CLI can switch on, and how (paths land in the cwd).
CLI_FLAGS = {"trace": ["--trace"],
             "breakdown": ["--breakdown", "b.json"],
             "timeseries": ["--timeseries", "t.jsonl"]}


class TestEntryPoints:
    """Every door refuses exactly the table's conflicts, with the
    resolver's message; everything else runs."""

    @pytest.mark.parametrize("case", MATRIX, ids=case_id)
    def test_api_run_refuses(self, case):
        mode, snapshot, planes = case
        want = expected(*case)
        run = lambda: api.run(one_cell(), mode=mode, snapshot=snapshot,
                              **plane_kwargs(planes))
        if want[0] == "conflict":
            with pytest.raises(ValueError) as err:
                run()
            assert_names(str(err.value), want[1], want[2])
            return
        report = run()
        assert report.result.rows
        assert (report.mode, report.snapshot) == want[1:3]
        assert_delivered(report, planes)

    @pytest.mark.parametrize("case", CONFLICTS, ids=case_id)
    def test_execute_and_apply_mode_refuse(self, case):
        mode, snapshot, planes = case
        _, named, alternative = expected(*case)
        kwargs = plane_kwargs(planes)
        with pytest.raises(ValueError) as err:
            execute(one_cell(), serial=True, mode=mode,
                    snapshot=snapshot, **kwargs)
        assert_names(str(err.value), named, alternative)
        # apply_mode is no second door to the same question: it takes
        # no planes at all.
        with pytest.raises(TypeError):
            apply_mode(one_cell(), mode, **kwargs)

    @pytest.mark.parametrize(
        "case", [c for c in CONFLICTS if set(c[2]) <= set(CLI_FLAGS)],
        ids=case_id)
    def test_cli_refuses(self, case, tmp_path, monkeypatch, capsys):
        mode, snapshot, planes = case
        _, named, alternative = expected(*case)
        monkeypatch.chdir(tmp_path)
        argv = ["fig6", "--quick", "--serial", "--cells", "C/mru",
                "--mode", mode, "--snapshot", snapshot]
        for plane in planes:
            argv += CLI_FLAGS[plane]
        with pytest.raises(SystemExit) as err:
            parallel.main(argv)
        assert err.value.code == 2
        assert_names(capsys.readouterr().err, named, alternative)
        assert not list(tmp_path.iterdir())


AUTO = [c for c in MATRIX if c[:2] == ("auto", "auto")]


class TestAutoRuns:
    """``auto`` never refuses: it runs every subset of planes, restored
    from the snapshot, on the tier the table says, and says why when
    that was a fallback."""

    @pytest.mark.parametrize("case", AUTO, ids=case_id)
    def test_runs_and_reports_the_choice(self, case):
        mode, snapshot, planes = case
        _, want_mode, want_snapshot, fell_back = expected(*case)
        assert want_snapshot == "on"
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
        assert_delivered(report, planes)

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
