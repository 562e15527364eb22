"""The ``bgt`` command line: configs are checked before any output."""

import json

import pytest
from click.testing import CliRunner

from bgtriplex.cli import main
from bgtriplex.training import TrainConfig

SMALL_MODEL = {"d_model": 8, "n_heads": 2}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "slide"
    result = CliRunner().invoke(main, ["synth", "--rows", "3", "--cols", "3", "--genes", "4",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out / "manifest.json"


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
                                 {"model": {"guide_mode": "sum"}}])
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
