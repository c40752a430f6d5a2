"""Mode / snapshot / plane rules: no plane refuses an engine.

:data:`repro.experiments.parallel.PLANES` lists the instrumentation
planes in attach order, and every one of them runs on either engine
(the replay engine runs the full engine's own unbounded loop), cold or
restored.  :func:`resolve_execution` only settles spellings: ``"auto"``
is ``"replay"`` for the mode and ``"on"`` for the snapshot.  Every case
below is generated over all modes x snapshot settings x subsets of
planes, with the expected outcome worked out here from the mode and
snapshot alone, and compared with what the resolver — and the three
entry points that call it — actually do.  The requests the old "needs
the full engine" column refused (an explicit ``mode="replay"`` with
``breakdown`` or ``timeseries``) are enumerated on their own and held
byte-equal to the full engine's run.
"""

import itertools

import pytest

from repro import api
from repro.experiments import fig6
from repro.experiments import parallel
from repro.experiments.parallel import (PLANES, apply_mode,
                                        breakdown_collapsed,
                                        breakdown_json, execute,
                                        resolve_execution,
                                        timeseries_jsonl)
from repro.faults.plan import FaultPlan

#: What switches each plane on, at every door that takes keywords.
#: Case ids list planes in this order, which is older than the attach
#: order; the ids keep it, so runs stay comparable across changes.
VALUES = {"faults": FaultPlan(seed=1), "breakdown": True,
          "timeseries": 2_000.0, "trace": True}
assert set(VALUES) == set(PLANES)

MODES = ("full", "replay", "auto")
SNAPSHOTS = ("off", "on", "auto")
SUBSETS = [subset for n in range(len(VALUES) + 1)
           for subset in itertools.combinations(VALUES, n)]
MATRIX = list(itertools.product(MODES, SNAPSHOTS, SUBSETS))

#: The requests the removed column refused: an explicit replay with a
#: plane it said needed the full engine.  Each now runs, byte-equal to
#: the full engine.
ONCE_REFUSED = [c for c in MATRIX if c[0] == "replay"
                and {"breakdown", "timeseries"} & set(c[2])]

SCALE = dict(nkeys=1000, cgroup_pages=64, nops=300, warmup_ops=100,
             nthreads=2, zipf_theta=1.1)


def one_cell():
    return fig6.plan(quick=True, policies=("mru",), workloads=("C",),
                     scale=dict(fig6.QUICK_SCALE, **SCALE))


def expected(mode, snapshot):
    """The settled ``(mode, snapshot)``: the planes have no say."""
    return ("full" if mode == "full" else "replay",
            "off" if snapshot == "off" else "on")


def plane_kwargs(planes):
    """``api.run`` / ``execute`` keywords switching exactly ``planes``
    on."""
    return {plane: VALUES[plane] for plane in planes}


def case_id(case):
    mode, snapshot, planes = case
    return f"{mode}-{snapshot}-{'+'.join(planes) or 'none'}"


def artifacts(report) -> tuple:
    """The table plus everything the observing planes filed, as the
    bytes the CLI writes."""
    return (report.result.format_table(), report.trace,
            breakdown_json(report), breakdown_collapsed(report),
            timeseries_jsonl(report) if report.timeseries else "")


class TestResolver:
    @pytest.mark.parametrize("case", MATRIX, ids=case_id)
    def test_matches_the_table(self, case):
        mode, snapshot, planes = case
        assert resolve_execution(mode, snapshot) == expected(mode,
                                                             snapshot)
        # No plane is in the resolver's sight.
        with pytest.raises(TypeError):
            resolve_execution(mode, snapshot, planes)

    def test_settled_answers_are_fixed_points(self):
        for mode, snapshot in itertools.product(MODES, SNAPSHOTS):
            settled = resolve_execution(mode, snapshot)
            assert resolve_execution(*settled) == settled

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
    """No door refuses a plane: every request runs on the engine its
    mode names and delivers what it asked for; the once-refused
    requests deliver what the full engine does, byte for byte."""

    @pytest.mark.parametrize("case", MATRIX, ids=case_id)
    def test_api_run_refuses(self, case):
        # Refuses nothing: every combination runs.
        mode, snapshot, planes = case
        report = api.run(one_cell(), mode=mode, snapshot=snapshot,
                         **plane_kwargs(planes))
        assert report.result.rows
        assert (report.mode, report.snapshot) == expected(mode, snapshot)
        assert_delivered(report, planes)

    @pytest.mark.parametrize("case", ONCE_REFUSED, ids=case_id)
    def test_execute_and_apply_mode_refuse(self, case):
        mode, snapshot, planes = case
        kwargs = plane_kwargs(planes)
        replay = execute(one_cell(), serial=True, mode=mode,
                         snapshot=snapshot, **kwargs)
        full = execute(one_cell(), serial=True, **kwargs)
        assert replay.mode == "replay"
        assert artifacts(replay) == artifacts(full)
        # apply_mode is no second door to a plane question: it takes
        # no planes at all, and refuses them.
        with pytest.raises(TypeError):
            apply_mode(one_cell(), mode, **kwargs)

    @pytest.mark.parametrize(
        "case", [c for c in ONCE_REFUSED if set(c[2]) <= set(CLI_FLAGS)],
        ids=case_id)
    def test_cli_refuses(self, case, tmp_path, monkeypatch, capsys):
        # Refuses nothing: the CLI writes the full engine's bytes.
        mode, snapshot, planes = case
        written = {}
        for run_mode in ("full", mode):
            out = tmp_path / run_mode
            out.mkdir()
            monkeypatch.chdir(out)
            argv = ["fig6", "--quick", "--serial", "--cells", "C/mru",
                    "--mode", run_mode, "--snapshot", snapshot]
            for plane in planes:
                argv += CLI_FLAGS[plane]
            assert parallel.main(argv) == 0
            captured = capsys.readouterr()
            assert f"mode={run_mode}, snapshot=" in captured.err
            written[run_mode] = (captured.out, {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())})
        assert written[mode] == written["full"]
        assert len(written[mode][1]) == sum(
            {"breakdown": 2, "timeseries": 1}.get(p, 0) for p in planes)


AUTO = [c for c in MATRIX if c[:2] == ("auto", "auto")]


class TestAutoRuns:
    """``auto`` is replay, restored from the snapshot, for every subset
    of planes, and the timing header says so."""

    @pytest.mark.parametrize("case", AUTO, ids=case_id)
    def test_runs_and_reports_the_choice(self, case):
        mode, snapshot, planes = case
        report = api.run(one_cell(), mode=mode, snapshot=snapshot,
                         **plane_kwargs(planes))
        assert report.result.rows
        assert (report.mode, report.snapshot) == ("replay", "on")
        header = report.format_timings().splitlines()[0]
        assert header.startswith(
            "[1 cells, jobs=1, mode=replay, snapshot=on, wall ")
        assert_delivered(report, planes)


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
