"""The ``bgt`` command line: configs are checked before any output."""

import json

import pytest
from click.testing import CliRunner

from bgtriplex.cli import main
from bgtriplex.data import save_dataset, synth_dataset
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
                                   ["--d-context", "4"], ["--guide-mode", "mca"]])
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


def test_cv_rerun_with_two_threads_is_byte_identical(manifest, tmp_path):
    other = synth(tmp_path / "other", "--slide-id", "other")
    files = ["cv/fold0.json", "cv/fold1.json", "cv/aggregate.json"]
    first, second = run_twice(tmp_path, ["cv", "--manifest", str(manifest), "--manifest",
                                         str(other), "-o", "{out}/cv", "--epochs", "1",
                                         "--d-model", "8", "--n-heads", "2", "--k-genes", "4",
                                         "--d-context", "3"],
                              files, env={"BGT_THREADS": "2"})
    assert first == second
