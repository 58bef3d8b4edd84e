import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from dwpe import cli, netsim, pipeline, room, wpe
from dwpe.cli import RunConfig, main, read_wav, write_wav
from dwpe.complexity import beta_report
from dwpe.dsp import Spectrogram, WindowSpec, istft, stft
from dwpe.signals import speech_like


@pytest.fixture(scope="module")
def small_scenario_file(small_scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "small.json"
    path.write_text(json.dumps(dataclasses.asdict(small_scenario)))
    return path


@pytest.fixture(scope="module")
def simulated(small_scenario_file, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--scenario", str(small_scenario_file),
               "--duration", "2.0", "--outdir", str(outdir)])
    assert rc == 0
    return outdir


def test_simulate_outputs(simulated):
    manifest = json.loads((simulated / "manifest.json").read_text())
    assert manifest["num_nodes"] == 3
    assert len(manifest["observations"]) == 3
    assert len(manifest["rirs"]) == 3
    assert manifest["t60_estimate"] == pytest.approx(0.4, rel=0.4)
    for name in manifest["observations"] + manifest["rirs"] + [manifest["clean"]]:
        assert (simulated / name).exists()


def test_simulate_single_node(tmp_path):
    scen_path = tmp_path / "one.json"
    scen = room.RoomScenario(
        room_dims=(5.0, 4.0, 3.0), source_pos=(2.0, 2.0, 1.5),
        mic_positions=[(3.5, 2.5, 1.4)], t60=0.3, sample_rate=16000,
        rir_length=3000, name="one-node",
    )
    scen_path.write_text(json.dumps(dataclasses.asdict(scen)))
    outdir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen_path), "--duration", "1.0",
                 "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["observations"]) == 1


def test_simulate_deterministic(small_scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--scenario", str(small_scenario_file),
                     "--duration", "1.0", "--seed", "3", "--outdir", str(out)]) == 0
    for name in json.loads((out_a / "manifest.json").read_text())["observations"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_same_bytes_for_any_worker_count(small_scenario, tmp_path, monkeypatch):
    clean = speech_like(1.0, small_scenario.sample_rate, seed=3)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(netsim, "worker_count", lambda num_jobs, w=workers: w)
        outdir = tmp_path / f"workers{workers}"
        outdir.mkdir()
        cli.simulate(small_scenario, clean, outdir, seed=3)
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    serial, pooled = outputs
    assert sorted(serial) == ["clean.wav", "manifest.json"] + [
        f"{kind}_{i:02d}.wav" for kind in ("observation", "rir") for i in range(3)]
    assert pooled == serial


def test_simulate_maps_its_nodes(small_scenario, tmp_path, monkeypatch):
    mapped = []
    map_nodes = netsim.map_nodes

    def recording(fn, items):
        items = list(items)
        mapped.append(items)
        return map_nodes(fn, items)

    monkeypatch.setattr(netsim, "map_nodes", recording)
    manifest = cli.simulate(small_scenario, speech_like(0.5, 16000, seed=1), tmp_path)
    assert mapped == [[0, 1, 2]]
    assert manifest["rirs"] == ["rir_00.wav", "rir_01.wav", "rir_02.wav"]


def test_simulate_missing_scenario_is_io_error(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path / "o")]) == 3


def test_simulate_unknown_scenario_key_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"room_dims": [4,4,3], "source_pos": [1,1,1], '
                    '"mic_positions": [[2,2,1]], "t60": 0.3, "rir_length": 3000, '
                    '"carpet": true}')
    assert main(["simulate", "--scenario", str(path),
                 "--outdir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,value", [
    ("room_dims", "abc"), ("t60", "x"), ("mic_positions", 3), ("sample_rate", 0),
    ("sample_rate", -16000), ("rir_length", 8192.5),
])
def test_simulate_malformed_scenario_value_is_config_error(tmp_path, capsys, key, value):
    raw = {"room_dims": [4, 4, 3], "source_pos": [1, 1, 1],
           "mic_positions": [[2, 2, 1]], "t60": 0.3, "rir_length": 3000, key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--scenario", str(path), "--duration", "0.5",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _broken_json(source: Path, target: Path, edit: str | tuple | None) -> Path:
    """Copy of the JSON file `source` at `target`: cut short into invalid
    JSON when `edit` is None, without the dotted key `edit` when it is a
    string, and with the dotted key edit[0] set to edit[1] otherwise."""
    text = source.read_text()
    if edit is None:
        text = text[: len(text) // 2]
    else:
        data = json.loads(text)
        *parents, last = (edit if isinstance(edit, str) else edit[0]).split(".")
        owner = data
        for part in parents:
            owner = owner[part]
        if isinstance(edit, str):
            del owner[last]
        else:
            owner[last] = edit[1]
        text = json.dumps(data)
    target.write_text(text)
    return target


@pytest.mark.parametrize("edit", [
    None, "observations", "sample_rate",
    pytest.param(("observations", 5), id="observations=5"),
    pytest.param(("observations", [0, 1, 2]), id="observations=ints"),
    pytest.param(("sample_rate", "16000"), id="sample_rate=str"),
    pytest.param(("num_nodes", "x"), id="num_nodes=str"),
    pytest.param(("seed", "abc"), id="seed=str"),
    pytest.param(("seed", 1.5), id="seed=float"),
    pytest.param(("scenario_path", 5), id="scenario_path=int"),
    pytest.param(("num_nodes", 1), id="num_nodes=fewer-than-observations"),
])
def test_dereverb_malformed_manifest_is_config_error(simulated, tmp_path, capsys, edit):
    manifest = _broken_json(simulated / "manifest.json", tmp_path / "manifest.json", edit)
    assert main(["dereverb", "--manifest", str(manifest), "--mode", "single",
                 "--outdir", str(tmp_path / "o")]) == 2
    assert str(manifest) in capsys.readouterr().err


@pytest.mark.parametrize("broken,edit", [
    ("manifest.json", None), ("manifest.json", "rirs"),
    ("run.json", None), ("run.json", "lags"),
    pytest.param("manifest.json", ("rirs", 5), id="manifest.json-rirs=5"),
    pytest.param("manifest.json", ("observations", "x.wav"),
                 id="manifest.json-observations=str"),
    ("run.json", "params.delay"), ("run.json", "window.hop"),
    pytest.param("run.json", ("params", 4), id="run.json-params=int"),
    pytest.param("run.json", ("params.delay", 4.5), id="run.json-params.delay=float"),
    pytest.param("run.json", ("window.hop", "2"), id="run.json-window.hop=str"),
    pytest.param("run.json", ("lags", 0), id="run.json-lags=int"),
    pytest.param("run.json", ("lags", [0, 0]), id="run.json-lags=short"),
    pytest.param("manifest.json", ("rirs", ["rir_00.wav"]), id="manifest.json-rirs=short"),
    pytest.param("run.json", ("estimates", ["estimate_node00.wav"]),
                 id="run.json-estimates=list"),
    pytest.param("run.json", ("estimates", {"x": "estimate_node00.wav"}),
                 id="run.json-estimates=bad-node"),
    pytest.param("run.json", ("estimates", {"3": "estimate_node00.wav"}),
                 id="run.json-estimates=node-outside"),
    pytest.param("run.json", ("estimates", {"01": "estimate_node00.wav"}),
                 id="run.json-estimates=padded-node"),
])
def test_evaluate_malformed_json_is_config_error(simulated, dereverbed, tmp_path, capsys,
                                                 broken, edit):
    paths = {"manifest.json": simulated / "manifest.json", "run.json": dereverbed / "run.json"}
    paths[broken] = _broken_json(paths[broken], tmp_path / broken, edit)
    assert main(["evaluate", "--manifest", str(paths["manifest.json"]),
                 "--run", str(paths["run.json"]), "--outdir", str(tmp_path / "o")]) == 2
    assert str(paths[broken]) in capsys.readouterr().err


def test_dereverb_single_mode(simulated, tmp_path):
    outdir = tmp_path / "single"
    rc = main(["dereverb", "--manifest", str(simulated / "manifest.json"),
               "--mode", "single", "--filter-order", "8", "--delay", "2",
               "--max-iters", "3", "--nodes", "0,2", "--outdir", str(outdir)])
    assert rc == 0
    info = json.loads((outdir / "run.json").read_text())
    assert sorted(info["estimates"]) == ["0", "2"]
    assert info["per_frame_bin_transmissions"] == 0
    assert info["params"]["psd_floor"] is None  # resolved per node from the data
    assert {f.name for f in dataclasses.fields(wpe.WpeParams)} <= set(info["params"])
    assert sorted(info["psd_floors"]) == ["0", "2"]
    assert all(v > 0 for v in info["psd_floors"].values())
    ledger = (outdir / "transmissions.csv").read_text().strip().splitlines()
    assert len(ledger) == 1  # header only: single mode moves nothing


def test_dereverb_distributed_even_round_broadcasts(simulated, tmp_path):
    outdir = tmp_path / "dist"
    rc = main(["dereverb", "--manifest", str(simulated / "manifest.json"),
               "--mode", "distributed", "--filter-order", "8", "--delay", "2",
               "--max-iters", "6", "--collab-period", "2",
               "--convergence-tol", "0", "--outdir", str(outdir)])
    assert rc == 0
    info = json.loads((outdir / "run.json").read_text())
    # the default report nodes in range of the three: node 0 alone
    assert info["estimates"] == {"0": "estimate_node00.wav"}
    assert info["per_frame_bin_transmissions"] == 2
    with open(outdir / "transmissions.csv") as fh:
        rounds = sorted({int(row["round"]) for row in csv.DictReader(fh)})
    assert rounds == [2, 4, 6]
    assert (outdir / "convergence.csv").exists()


def test_dereverb_centralized_ledger(simulated, tmp_path):
    outdir = tmp_path / "cent"
    rc = main(["dereverb", "--manifest", str(simulated / "manifest.json"),
               "--mode", "centralized", "--filter-order", "8", "--delay", "2",
               "--max-iters", "2", "--nodes", "0", "--outdir", str(outdir)])
    assert rc == 0
    info = json.loads((outdir / "run.json").read_text())
    assert info["per_frame_bin_transmissions"] == 2 * 8
    with open(outdir / "transmissions.csv") as fh:
        rows = list(csv.DictReader(fh))
    # two non-reference nodes ship their delayed-vector stream once
    assert len(rows) == 2
    n_frames_bins = sum(int(r["units"]) for r in rows) / 8
    assert n_frames_bins == int(n_frames_bins) > 0


def test_centralized_dereverb_builds_gram_once(simulated, tmp_path, monkeypatch):
    targets = []
    build = wpe.Gram.build

    def counting_build(streams, refs):
        targets.append(len(refs))
        return build(streams, refs)

    monkeypatch.setattr(wpe.Gram, "build", counting_build)
    outdir = tmp_path / "cent"
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "centralized", "--filter-order", "6", "--delay", "2",
                 "--max-iters", "2", "--nodes", "0,2", "--outdir", str(outdir)]) == 0
    # one Gram, of both report nodes' references, serves the whole run
    assert targets == [2]
    monkeypatch.undo()

    # the estimates are one two-target run's, byte for byte
    manifest = json.loads((simulated / "manifest.json").read_text())
    fs, observations = cli._load_observations(manifest, simulated)
    aligned, _ = netsim.synchronize(observations, 0)
    specs = [stft(sig, cli.STFT_WINDOW, fs).data for sig in aligned]
    params = wpe.WpeParams(delay=2, filter_order=6, max_iters=2)
    result = wpe.run_wpe(specs, (0, 2), params)
    for node, desired in zip((0, 2), result.desired):
        estimate = istft(Spectrogram(desired, fs, cli.STFT_WINDOW))
        expected = tmp_path / f"expected{node}.wav"
        write_wav(expected, fs, estimate[: aligned[0].size])
        assert (outdir / f"estimate_node{node:02d}.wav").read_bytes() == expected.read_bytes()


def test_dereverb_reports_frames_per_unknown(simulated, tmp_path, capsys):
    manifest = json.loads((simulated / "manifest.json").read_text())
    fs, observations = cli._load_observations(manifest, simulated)
    n_frames = stft(netsim.synchronize(observations, 0)[0][0], cli.STFT_WINDOW, fs).data.shape[0]
    # three nodes: d = L single, 3L centralized; distributed solves L + 2
    # once cross-node data has arrived (round 3 at collab_period 2), L before
    wide = n_frames // 5  # 3L > n_frames / 2
    for mode, order, iters, unknowns in [("single", 8, 1, 8), ("distributed", 8, 1, 8),
                                         ("distributed", 8, 3, 10),
                                         ("centralized", wide, 1, 3 * wide)]:
        outdir = tmp_path / f"{mode}{iters}"
        assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                     "--mode", mode, "--filter-order", str(order), "--delay", "2",
                     "--max-iters", str(iters), "--nodes", "0", "--outdir", str(outdir)]) == 0
        info = json.loads((outdir / "run.json").read_text())
        assert info["frames_per_unknown"] == n_frames / unknowns
        warned = "frames per unknown" in capsys.readouterr().err
        assert warned == (mode == "centralized")


@pytest.mark.parametrize("tol,warned", [("0", False), ("1e-12", True)])
def test_dereverb_warns_only_at_positive_tolerance(simulated, tmp_path, capsys, tol, warned):
    # one round cannot bring the change below 1e-12; tolerance 0 asks for no stop
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "single", "--filter-order", "8", "--delay", "2",
                 "--max-iters", "1", "--convergence-tol", tol, "--nodes", "0",
                 "--outdir", str(tmp_path)]) == 0
    assert not json.loads((tmp_path / "run.json").read_text())["converged"]
    assert ("convergence tolerance" in capsys.readouterr().err) == warned


def test_fingerprint_covers_solver_and_window_settings(monkeypatch):
    def fingerprint(**params):
        return RunConfig(scenario_path="s.json", mode="distributed",
                         params=wpe.WpeParams(**params)).fingerprint()

    base = fingerprint()
    assert fingerprint() == base
    changed = {"delay": 3, "filter_order": 8, "psd_floor": 0.5, "max_iters": 2,
               "convergence_tol": 1e-3}
    assert set(changed) == {f.name for f in dataclasses.fields(wpe.WpeParams)}
    for name, value in changed.items():
        assert fingerprint(**{name: value}) != base, name
    monkeypatch.setattr(pipeline, "STFT_WINDOW", WindowSpec(frame_len=256, hop=64))
    assert fingerprint() != base


def test_dereverb_fingerprints_the_manifest_seed(small_scenario_file, tmp_path):
    simdir, outdir = tmp_path / "sim", tmp_path / "run"
    assert main(["simulate", "--scenario", str(small_scenario_file), "--duration", "0.5",
                 "--seed", "5", "--outdir", str(simdir)]) == 0
    args = ["dereverb", "--manifest", str(simdir / "manifest.json"), "--mode", "single",
            "--filter-order", "4", "--delay", "2", "--max-iters", "1", "--nodes", "0",
            "--outdir", str(outdir)]
    assert main(args) == 0
    info = json.loads((outdir / "run.json").read_text())
    params = wpe.WpeParams(delay=2, filter_order=4, max_iters=1, convergence_tol=1e-4)

    def fingerprint(seed):
        return RunConfig(str(small_scenario_file), "single", params=params,
                         report_nodes=(0,), seed=seed).fingerprint()

    assert info["fingerprint"] == fingerprint(5) != fingerprint(0)
    with pytest.raises(SystemExit):  # the seed is the input's, not a flag
        main(args + ["--seed", "5"])


def test_fingerprint_is_stable():
    # earlier runs' metrics.csv rows and run.json files must keep matching
    config = RunConfig("scenarios/simulated_12node.json", "distributed")
    assert config.fingerprint() == "c510911ca3bf"


def test_centralized_fingerprint_covers_the_report_nodes():
    # a centralized run weights every report node by one shared PSD, so the
    # report nodes change each estimate; elsewhere a node's estimate is its own
    def fingerprint(mode, nodes):
        return RunConfig("scenarios/simulated_12node.json", mode,
                         report_nodes=nodes).fingerprint()

    assert fingerprint("centralized", (0,)) != fingerprint("centralized", (0, 3, 6))
    assert fingerprint("centralized", (0, 3, 6)) != fingerprint("centralized", (6, 3, 0))
    for mode in ("single", "distributed"):
        assert fingerprint(mode, (0,)) == fingerprint(mode, (0, 3, 6))


def test_dereverb_deterministic(simulated, tmp_path):
    outs = []
    for label in ("r1", "r2"):
        outdir = tmp_path / label
        assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                     "--mode", "distributed", "--filter-order", "6", "--delay", "2",
                     "--max-iters", "4", "--outdir", str(outdir)]) == 0
        outs.append(outdir)
    for name in json.loads((outs[0] / "run.json").read_text())["estimates"].values():
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_dereverb_bad_report_node(simulated, tmp_path):
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "single", "--nodes", "7",
                 "--outdir", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("nodes", ["0,x", ""])
def test_dereverb_malformed_nodes_is_config_error(simulated, tmp_path, nodes):
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "single", "--nodes", nodes,
                 "--outdir", str(tmp_path / "x")]) == 2


def test_dereverb_duplicate_nodes_is_config_error(simulated, tmp_path):
    # a repeated node would run, and bill the ledger, twice for one estimate
    outdir = tmp_path / "x"
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "centralized", "--nodes", "0,0",
                 "--outdir", str(outdir)]) == 2
    assert not (outdir / "transmissions.csv").exists()


def test_report_malformed_node_counts_is_config_error(tmp_path):
    assert main(["report", "--filter-order", "26", "--node-counts", "6,x",
                 "--outdir", str(tmp_path / "x")]) == 2


RUN_JSON_KEYS = [
    "mode", "scenario_name", "num_nodes", "sample_rate", "lags", "report_nodes",
    "params", "window", "fingerprint", "frames_per_unknown", "rounds_run", "converged",
    "per_frame_bin_transmissions", "estimates", "psd_floors",
]


@pytest.mark.parametrize("mode", netsim.MODES)
def test_run_json_keys(simulated, tmp_path, mode):
    outdir = tmp_path / mode
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", mode, "--filter-order", "6", "--delay", "2",
                 "--max-iters", "2", "--convergence-tol", "0", "--nodes", "0",
                 "--outdir", str(outdir)]) == 0
    info = json.loads((outdir / "run.json").read_text())
    assert list(info) == RUN_JSON_KEYS
    # the nodes estimated, written and scored: the report nodes in every mode
    assert info["report_nodes"] == [0]
    assert info["report_nodes"] == [int(node) for node in info["estimates"]]
    # convergence.csv holds rounds 1 .. rounds_run of every node that solved,
    # which distributed mode runs all of
    solved = ["0", "1", "2"] if mode == "distributed" else ["0"]
    assert list(info["psd_floors"]) == solved
    with open(outdir / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["node", "round", "change", "cost"]
    assert [(row["node"], int(row["round"])) for row in rows] == [
        (node, r) for node in solved for r in range(1, info["rounds_run"] + 1)]


def test_distributed_writes_only_the_report_nodes(simulated, tmp_path):
    outdir = tmp_path / "dist"
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "distributed", "--filter-order", "6", "--delay", "2",
                 "--max-iters", "4", "--nodes", "1", "--outdir", str(outdir)]) == 0
    info = json.loads((outdir / "run.json").read_text())
    assert info["report_nodes"] == [1]
    assert sorted(path.name for path in outdir.glob("*.wav")) == ["estimate_node01.wav"]


@pytest.fixture(scope="module")
def dereverbed(simulated, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    rc = main(["dereverb", "--manifest", str(simulated / "manifest.json"),
               "--mode", "distributed", "--filter-order", "8", "--delay", "2",
               "--max-iters", "8", "--nodes", "0,1,2", "--outdir", str(outdir)])
    assert rc == 0
    return outdir


def test_evaluate_outputs_rows(simulated, dereverbed, tmp_path):
    outdir = tmp_path / "eval"
    rc = main(["evaluate", "--manifest", str(simulated / "manifest.json"),
               "--run", str(dereverbed / "run.json"), "--outdir", str(outdir)])
    assert rc == 0
    with open(outdir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    modes = {r["mode"] for r in rows}
    assert modes == {"unprocessed", "distributed"}
    per_node = [r for r in rows if r["node"] != "mean"]
    assert len(per_node) == 6  # 3 nodes x 2 modes
    means = [r for r in rows if r["node"] == "mean"]
    assert len(means) == 2
    assert all(r["fingerprint"] for r in rows)


def test_evaluate_boundary_past_rir_scores_unprocessed_as_exact(
        simulated, dereverbed, tmp_path):
    # 300 ms is 4800 taps, past the 4096-tap RIRs: the whole RIR is early,
    # so each observation is its own reference
    outdir = tmp_path / "eval"
    assert main(["evaluate", "--manifest", str(simulated / "manifest.json"),
                 "--run", str(dereverbed / "run.json"), "--early-ms", "300",
                 "--outdir", str(outdir)]) == 0
    with open(outdir / "metrics.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["mode"] == "unprocessed"]
    assert len(rows) == 4  # 3 nodes and their mean
    for row in rows:
        assert f"{float(row['cd']):.3f}" == "0.000"
        assert f"{float(row['fsnr']):.3f}" == "35.000"


def test_evaluate_zero_boundary_is_config_error(simulated, dereverbed, tmp_path, capsys):
    assert main(["evaluate", "--manifest", str(simulated / "manifest.json"),
                 "--run", str(dereverbed / "run.json"), "--early-ms", "0",
                 "--outdir", str(tmp_path)]) == 2
    assert "boundary 0 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag, value", [
    ("dereverb", "--psd-floor", "inf"), ("dereverb", "--psd-floor", "nan"),
    ("dereverb", "--convergence-tol", "nan"), ("dereverb", "--convergence-tol", "-0.001"),
    ("simulate", "--duration", "nan"), ("simulate", "--duration", "inf"),
    ("simulate", "--seed", "-1"),
    ("evaluate", "--early-ms", "nan"), ("evaluate", "--early-ms", "inf"),
])
def test_non_finite_or_negative_setting_is_config_error(
        small_scenario_file, simulated, dereverbed, tmp_path, capsys, verb, flag, value):
    inputs = {
        "simulate": ["--scenario", str(small_scenario_file)],
        "dereverb": ["--manifest", str(simulated / "manifest.json"), "--mode", "single"],
        "evaluate": ["--manifest", str(simulated / "manifest.json"),
                     "--run", str(dereverbed / "run.json")],
    }[verb]
    outdir = tmp_path / "out"
    assert main([verb, *inputs, flag, value, "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {value}" in err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("duration", ["1e300", "1e305"])
def test_simulate_unallocatable_duration_is_config_error(
        small_scenario_file, tmp_path, capsys, duration):
    # finite, but more samples than an array can hold (1e305 s overflows
    # to an infinite sample count)
    outdir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(small_scenario_file),
                 "--duration", duration, "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {float(duration)}" in err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("verb", ["simulate", "evaluate"])
def test_non_finite_wav_is_config_error(small_scenario_file, simulated, dereverbed, tmp_path,
                                        capsys, verb):
    source = tmp_path / "sim"
    shutil.copytree(simulated, source)
    clean_path = source / "clean.wav"
    rate, clean = read_wav(clean_path)
    clean[100] = np.nan
    write_wav(clean_path, rate, clean)
    inputs = {
        "simulate": ["--scenario", str(small_scenario_file), "--clean", str(clean_path)],
        "evaluate": ["--manifest", str(source / "manifest.json"),
                     "--run", str(dereverbed / "run.json")],
    }[verb]
    outdir = tmp_path / "out"
    assert main([verb, *inputs, "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{clean_path}: contains non-finite samples" in err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("mode", netsim.MODES)
def test_dereverb_delay_past_the_signal_is_config_error(simulated, tmp_path, capsys, mode):
    manifest = json.loads((simulated / "manifest.json").read_text())
    fs, observations = cli._load_observations(manifest, simulated)
    n_frames = cli.STFT_WINDOW.num_frames(observations[0].size)
    outdir = tmp_path / "out"
    for delay in (n_frames, 100000):
        assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                     "--mode", mode, "--delay", str(delay), "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"delay {delay}" in err and f"{n_frames} STFT frames" in err
        assert list(outdir.iterdir()) == []


def test_dereverb_bad_reference_is_config_error(simulated, tmp_path, capsys):
    assert main(["dereverb", "--manifest", str(simulated / "manifest.json"),
                 "--mode", "single", "--ref", "7", "--outdir", str(tmp_path)]) == 2
    assert "reference 7 out of range" in capsys.readouterr().err


def identity_run(tmp_path, fs: int, clean: np.ndarray) -> list[str]:
    """The evaluate arguments of a hand-built one-node run at fs whose
    estimate equals its reference exactly."""
    simdir = tmp_path / "sim"
    simdir.mkdir()
    taps = np.zeros(512)
    taps[0] = 1.0
    write_wav(simdir / "clean.wav", fs, clean)
    write_wav(simdir / "rir_00.wav", fs, taps)
    clean_back = read_wav(simdir / "clean.wav")[1]  # float32 quantized copy
    write_wav(simdir / "observation_00.wav", fs, clean_back)
    manifest = {
        "scenario_name": "identity", "scenario_path": "", "num_nodes": 1,
        "sample_rate": fs, "clean": "clean.wav",
        "observations": ["observation_00.wav"], "rirs": ["rir_00.wav"],
        "t60_target": 0.0, "t60_estimate": 0.0, "seed": 0,
    }
    (simdir / "manifest.json").write_text(json.dumps(manifest))
    rundir = tmp_path / "run"
    rundir.mkdir()
    write_wav(rundir / "estimate_node00.wav", fs, clean_back)
    run_info = {
        "mode": "distributed", "scenario_name": "identity", "num_nodes": 1,
        "sample_rate": fs, "lags": [0], "report_nodes": [0],
        "params": {"delay": 4, "filter_order": 8, "max_iters": 1,
                   "convergence_tol": 1e-4, "collab_period": 2},
        "window": {"frame_len": 512, "hop": 128},
        "fingerprint": "test", "estimates": {"0": "estimate_node00.wav"},
    }
    (rundir / "run.json").write_text(json.dumps(run_info))
    return ["evaluate", "--manifest", str(simdir / "manifest.json"),
            "--run", str(rundir / "run.json"), "--outdir", str(tmp_path / "eval")]


def test_evaluate_identity_estimate_hits_metric_bounds(tmp_path):
    assert main(identity_run(tmp_path, 16000, speech_like(1.0, 16000, seed=9))) == 0
    outdir = tmp_path / "eval"
    with open(outdir / "metrics.csv") as fh:
        rows = {(r["mode"], r["node"]): r for r in csv.DictReader(fh)}
    est_row = rows[("distributed", "0")]
    assert float(est_row["cd"]) == pytest.approx(0.0, abs=1e-7)
    assert float(est_row["fsnr"]) == pytest.approx(35.0)


def test_evaluate_rate_without_metric_hop_is_input_error(tmp_path, capsys):
    # at 40 Hz the 10 ms metric hop rounds to no sample; framing divided by zero
    clean = np.random.default_rng(0).standard_normal(4800)
    assert main(identity_run(tmp_path, 40, clean)) == 2
    assert "node 0 observation: the 0.01 s metric hop has no sample at 40 Hz" in (
        capsys.readouterr().err)


def test_report_closed_form_tables(tmp_path):
    outdir = tmp_path / "rep"
    rc = main(["report", "--filter-order", "26", "--node-counts", "6,9,12",
               "--scenario-name", "simulated", "--outdir", str(outdir)])
    assert rc == 0
    with open(outdir / "transmissions_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    cent = {int(r["num_nodes"]): int(r["per_frame_bin_transmissions"])
            for r in rows if r["mode"] == "centralized"}
    dist = {int(r["num_nodes"]): int(r["per_frame_bin_transmissions"])
            for r in rows if r["mode"] == "distributed"}
    assert cent == {6: 130, 9: 208, 12: 286}
    assert dist == {6: 5, 9: 8, 12: 11}
    with open(outdir / "reductions.csv") as fh:
        reductions = {int(r["num_nodes"]): float(r["reduction_percent"])
                      for r in csv.DictReader(fh)}
    assert reductions[12] == pytest.approx(96.15, abs=0.005)
    assert (outdir / "betas.csv").exists()


def test_report_real_geometry(tmp_path):
    outdir = tmp_path / "rep"
    rc = main(["report", "--filter-order", "40", "--node-counts", "4,6,8",
               "--scenario-name", "real", "--outdir", str(outdir)])
    assert rc == 0
    with open(outdir / "reductions.csv") as fh:
        reductions = {int(r["num_nodes"]): float(r["reduction_percent"])
                      for r in csv.DictReader(fh)}
    assert reductions[8] == pytest.approx(97.5, abs=0.005)


def test_report_betas_table(tmp_path):
    outdir = tmp_path / "rep"
    assert main(["report", "--filter-order", "26", "--node-counts", "6,9,12",
                 "--scenario-name", "simulated", "--outdir", str(outdir)]) == 0
    with open(outdir / "betas.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "scenario", "num_nodes", "filter_order",
        "beta_mul", "beta_div", "beta_solve",
        "beta_mul_network", "beta_div_network", "beta_solve_network",
    ]
    assert [int(r["num_nodes"]) for r in rows] == [6, 9, 12]
    for row in rows:
        m = int(row["num_nodes"])
        rep = beta_report(m, 26)
        assert (row["scenario"], int(row["filter_order"])) == ("simulated", 26)
        for name in ("beta_mul", "beta_div", "beta_solve"):
            assert float(row[name]) == getattr(rep, name)
            assert float(row[f"{name}_network"]) == getattr(rep, name) * m


@pytest.mark.parametrize("order,counts", [("26", "1,6"), ("2", "6"), ("26", "0")])
def test_failed_report_writes_no_table(tmp_path, order, counts):
    outdir = tmp_path / "rep"
    assert main(["report", "--filter-order", order, "--node-counts", counts,
                 "--outdir", str(outdir)]) == 2
    assert list(outdir.glob("*.csv")) == []


def test_read_wav_8bit_is_centred(tmp_path):
    # 8-bit PCM is unsigned: 128 is silence, 0 and 255 the extremes
    path = tmp_path / "u8.wav"
    sine = np.sin(2 * np.pi * 440 * np.arange(1600) / 16000)
    wavfile.write(path, 16000, np.round(128 + 127 * sine).astype(np.uint8))
    rate, back = read_wav(path)
    assert rate == 16000
    assert back.dtype == np.float64
    np.testing.assert_allclose(back, sine * 127 / 128, atol=0.5 / 128)
    assert abs(back.mean()) < 1e-2
    wavfile.write(path, 16000, np.array([0, 128, 255], dtype=np.uint8))
    np.testing.assert_array_equal(read_wav(path)[1], [-1.0, 0.0, 127 / 128])


def test_wav_roundtrip(tmp_path, rng):
    data = rng.standard_normal(1000) * 0.3
    path = tmp_path / "x.wav"
    write_wav(path, 16000, data)
    rate, back = read_wav(path)
    assert rate == 16000
    np.testing.assert_allclose(back, data, atol=1e-6)
