"""The ``bgt`` command line: configs are checked before any output."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from bgtriplex import cli
from bgtriplex.checkpoint import load_checkpoint
from bgtriplex.cli import main
from bgtriplex.data import load_dataset, save_dataset, synth_dataset
from bgtriplex.training import TrainConfig

SMALL_MODEL = {"d_model": 8, "n_heads": 2}


def synth(out, *args):
    result = CliRunner().invoke(main, ["synth", "--rows", "3", "--cols", "3", "--genes", "4",
                                       "-o", str(out), *args])
    assert result.exit_code == 0, result.output
    return out / "manifest.json"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("synth") / "slide")


def train(manifest, out, *args):
    return CliRunner().invoke(main, ["train", "--manifest", str(manifest), "-o", str(out),
                                     "--epochs", "1", "--d-model", "8", "--n-heads", "2",
                                     *args])


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("flags", [["--grad-clip", "0"], ["--grad-clip", "-1"],
                                   ["--d-context", "4"], ["--guide-mode", "mca"],
                                   ["--n-heads", "0"], ["--d-model", "0"], ["--n-heads", "-2"],
                                   ["--d-model", "-8", "--n-heads", "2"]])
def test_bad_flags_exit_2_before_output(manifest, tmp_path, flags):
    out = tmp_path / "run"
    result = train(manifest, out, *flags)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("doc", [{"train": {"grad_clipp": 1.0}}, {"model": {"d_modell": 8}},
                                 {"model": {"guide_mode": "sum"}},
                                 {"model": {"stream_dims": {"img": 4, "edge": 6, "nuc": 8}}}])
def test_bad_config_keys_exit_2_before_output(manifest, tmp_path, doc):
    out = tmp_path / "run"
    result = train(manifest, out, "--config", write_config(tmp_path / "c.json", doc))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert not out.exists()


def test_clip_and_detach_flags_reach_the_training_config(manifest, tmp_path):
    result = train(manifest, tmp_path / "run", "--grad-clip", "0.5", "--no-distill-detach")
    assert result.exit_code == 0, result.output
    run = json.loads((tmp_path / "run" / "run.json").read_text())
    assert (run["train"]["grad_clip"], run["train"]["distill_detach"]) == (0.5, False)


def test_run_json_from_older_version_is_a_valid_config(manifest, tmp_path):
    legacy = {"final_loss_total": 1.0, "train_pcc_m": 0.0,
              "train": TrainConfig(epochs=1, k_genes=4, d_context=3).to_dict(),
              "model": dict(SMALL_MODEL, guide_mode="mca", tokens_per_stream=4)}
    first = train(manifest, tmp_path / "a", "--config",
                  write_config(tmp_path / "run.json", legacy))
    assert first.exit_code == 0, first.output
    again = train(manifest, tmp_path / "b", "--config", str(tmp_path / "a" / "run.json"))
    assert again.exit_code == 0, again.output
    assert ((tmp_path / "b" / "checkpoint.bgck").read_bytes()
            == (tmp_path / "a" / "checkpoint.bgck").read_bytes())


def test_stream_dims_are_taken_from_the_data(tmp_path):
    widths = {"img": 5, "edge": 3, "nuc": 7}
    dataset, _ = synth_dataset(3, 3, 4, 0.05, seed=5, stream_dims=widths)
    result = train(save_dataset(dataset, tmp_path / "slide"), tmp_path / "run")
    assert result.exit_code == 0, result.output
    run = json.loads((tmp_path / "run" / "run.json").read_text())
    assert run["model"]["stream_dims"] == widths


@pytest.fixture(scope="module")
def checkpoint(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    result = train(manifest, out, "--k-genes", "4", "--d-context", "3")
    assert result.exit_code == 0, result.output
    return out / "checkpoint.bgck"


def run_twice(tmp_path, args, outputs, env=None):
    """Run one command in two fresh directories; returns both runs' output bytes."""
    runs = []
    for name in ("first", "second"):
        base = tmp_path / name
        base.mkdir()
        result = CliRunner().invoke(main, [a.format(out=base) for a in args], env=env)
        assert result.exit_code == 0, result.output
        runs.append([(base / path).read_bytes() for path in outputs])
    return runs


def test_predict_rerun_is_byte_identical(manifest, checkpoint, tmp_path):
    first, second = run_twice(tmp_path, ["predict", "--checkpoint", str(checkpoint),
                                         "--manifest", str(manifest), "-o", "{out}/pred.tsv"],
                              ["pred.tsv"])
    assert first == second


def test_predict_writes_values_as_numpy_prints_them(manifest, checkpoint, tmp_path,
                                                    monkeypatch):
    edge = [-0.0, 0.0, 1e-05, 1e-04, 1e16, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
            -2.5e-7, 1.7976931348623157e308]
    _, _, genes = load_checkpoint(checkpoint)
    spot_ids = [spot.spot_id for spot in load_dataset(manifest).spots]
    rng = np.random.default_rng(8)
    size = len(spot_ids) * len(genes)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size)
    values[:len(edge)] = edge
    pred = values.reshape(len(spot_ids), len(genes))
    monkeypatch.setattr(cli, "forward_slide", lambda *args: {"fused": pred.copy()})
    out = tmp_path / "pred.tsv"
    result = CliRunner().invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                       "--manifest", str(manifest), "-o", str(out)])
    assert result.exit_code == 0, result.output
    expected = "spot_id\t" + "\t".join(genes) + "\n" + "".join(
        spot_id + "\t" + "\t".join(str(np.float64(v)) for v in row) + "\n"
        for spot_id, row in zip(spot_ids, pred))
    assert out.read_bytes() == expected.encode("utf-8")


def test_export_map_rerun_is_byte_identical(manifest, checkpoint, tmp_path):
    first, second = run_twice(tmp_path, ["export-map", "--checkpoint", str(checkpoint),
                                         "--manifest", str(manifest), "--gene", "G0001",
                                         "-o", "{out}/map"],
                              ["map.csv", "map.pgm"])
    assert first == second


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5", ""])
def test_bad_thread_count_exits_2_before_output(manifest, tmp_path, threads):
    out = tmp_path / "cv"
    result = CliRunner().invoke(main, ["cv", "--manifest", str(manifest), "--manifest",
                                       str(manifest), "-o", str(out), "--epochs", "1"],
                                env={"BGT_THREADS": threads})
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "BGT_THREADS" in result.output
    assert not out.exists()


def test_cv_with_one_slide_exits_2_before_output(manifest, tmp_path):
    out = tmp_path / "cv"
    result = CliRunner().invoke(main, ["cv", "--manifest", str(manifest), "-o", str(out),
                                       "--epochs", "1"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "at least 2" in result.output
    assert not out.exists()


def test_eval_prints_the_metrics_table_and_writes_the_report(manifest, checkpoint, tmp_path):
    report = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(checkpoint), "--manifest",
                                       str(manifest), "-o", str(report)])
    assert result.exit_code == 0, result.output
    header, values = result.stdout.splitlines()
    assert header.split() == ["MSE", "PCC(M)", "PCC(H)"]
    doc = json.loads(report.read_text())
    assert values.split() == [f"{doc[key]:.4f}" for key in ("mse", "pcc_m", "pcc_h")]


def test_eval_on_a_slide_missing_a_checkpoint_gene_exits_4(checkpoint, tmp_path):
    other = synth(tmp_path / "few", "--genes", "2")
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(checkpoint), "--manifest",
                                       str(other)])
    assert result.exit_code == 4, result.output
    assert "checkpoint genes" in result.output


def test_cv_rerun_with_two_threads_is_byte_identical(manifest, tmp_path):
    other = synth(tmp_path / "other", "--slide-id", "other")
    files = ["cv/fold0.json", "cv/fold1.json", "cv/aggregate.json"]
    first, second = run_twice(tmp_path, ["cv", "--manifest", str(manifest), "--manifest",
                                         str(other), "-o", "{out}/cv", "--epochs", "1",
                                         "--d-model", "8", "--n-heads", "2", "--k-genes", "4",
                                         "--d-context", "3"],
                              files, env={"BGT_THREADS": "2"})
    assert first == second
