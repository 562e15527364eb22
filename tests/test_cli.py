"""The ``bgt`` command line: configs are checked before any output."""

import json
import math
import struct

import numpy as np
import pytest
from click.testing import CliRunner

from bgtriplex import cli
from bgtriplex.checkpoint import load_checkpoint
from bgtriplex.cli import main
from bgtriplex.data import load_dataset, save_dataset, synth_dataset
from bgtriplex.features import encode_bgft
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
                                   ["--d-model", "-8", "--n-heads", "2"],
                                   ["--drop-spot", "--drop-ctx"]])
def test_bad_flags_exit_2_before_output(manifest, tmp_path, flags):
    out = tmp_path / "run"
    result = train(manifest, out, *flags)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert not out.exists()


BAD_CONFIGS = [{"train": {"grad_clipp": 1.0}}, {"model": {"d_modell": 8}},
               {"model": {"guide_mode": "sum"}},
               {"model": {"stream_dims": {"img": 4, "edge": 6, "nuc": 8}}},
               {"trian": {"epochs": 1}}, [1], {"train": 3}, {"model": []},
               {"pcch_selector": "best"}, {"provider": "files"}, {"provider": "precomputed"},
               {"train": {"lr": "fast"}},
               {"train": {"d_context": 3.0}}, {"train": {"batch_size": 2.5}},
               {"train": {"k_genes": True}}, {"train": {"distill_detach": 1}},
               {"model": {"eps": "1e-5"}},
               {"model": {"drop_spot": "no"}}, {"model": {"drop_spot": True, "drop_ctx": True}},
               {"model": {"stream_dims": {"img": 10.0, "edge": 6, "nuc": 8}}},
               {"model": {"stream_dims": {"img": 10, "edge": 6}}}]


@pytest.mark.parametrize("doc", BAD_CONFIGS)
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


@pytest.mark.parametrize("flags", [["--drop-spot"], ["--drop-global", "--drop-ctx"]])
def test_ablations_train_and_predict_byte_identically(manifest, tmp_path, flags):
    trained = tmp_path / "trained"
    result = train(manifest, trained, "--k-genes", "4", "--d-context", "3", *flags)
    assert result.exit_code == 0, result.output
    model = json.loads((trained / "run.json").read_text())["model"]
    assert all(model[flag[2:].replace("-", "_")] is True for flag in flags)
    first, second = run_twice(tmp_path, ["predict", "--checkpoint",
                                         str(trained / "checkpoint.bgck"), "--manifest",
                                         str(manifest), "-o", "{out}/pred.tsv"], ["pred.tsv"])
    assert first == second


def test_predict_on_a_version_1_checkpoint_exits_4_before_output(manifest, checkpoint,
                                                                  tmp_path):
    # version 1 let the global stream stand in for a dropped branch
    blob = checkpoint.read_bytes()
    old = tmp_path / "v1.bgck"
    old.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    out = tmp_path / "pred.tsv"
    result = CliRunner().invoke(main, ["predict", "--checkpoint", str(old), "--manifest",
                                       str(manifest), "-o", str(out)])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "unsupported version 1" in result.output
    assert not out.exists()


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


@pytest.mark.parametrize("command", [["predict"], ["eval"], ["export-map", "--gene", "G0001"]])
def test_missing_output_directory_exits_2_before_loading(manifest, checkpoint, tmp_path,
                                                         monkeypatch, command):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded before the output path was checked")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    monkeypatch.setattr(cli, "load_dataset", no_load)
    out = tmp_path / "missing" / "out"
    result = CliRunner().invoke(main, [*command, "--checkpoint", str(checkpoint), "--manifest",
                                       str(manifest), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "does not exist" in result.output
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("stream_dims", [{"img": 10, "edge": 6},
                                         {"img": -10, "edge": 6, "nuc": 8},
                                         {"img": 10, "edge": 6, "nuc": 8, "x": 4}])
def test_predict_on_bad_checkpoint_stream_dims_exits_4_before_output(manifest, checkpoint,
                                                                      tmp_path, stream_dims):
    blob = checkpoint.read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    meta["model"]["stream_dims"] = stream_dims
    doc = json.dumps(meta).encode("utf-8")
    bad = tmp_path / "bad.bgck"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(doc)) + doc + blob[12 + meta_len:])
    out = tmp_path / "pred.tsv"
    result = CliRunner().invoke(main, ["predict", "--checkpoint", str(bad), "--manifest",
                                       str(manifest), "-o", str(out)])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "invalid metadata" in result.output
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5", ""])
def test_bad_thread_count_exits_2_before_output(manifest, checkpoint, tmp_path, threads):
    # every command that reads BGT_THREADS
    model = ["--checkpoint", str(checkpoint), "--manifest", str(manifest)]
    for args in (["train", "--manifest", str(manifest), "--epochs", "1"],
                 ["eval", *model],
                 ["cv", "--manifest", str(manifest), "--manifest", str(manifest), "--epochs", "1"],
                 ["predict", *model],
                 ["export-map", *model, "--gene", "g0"]):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [*args, "-o", str(out)], env={"BGT_THREADS": threads})
        assert result.exit_code == 2, (args[0], result.output)
        assert result.stdout == "", args[0]
        assert "BGT_THREADS" in result.output, args[0]
        assert list(tmp_path.iterdir()) == [], args[0]


def test_predict_writes_the_same_bytes_in_one_and_two_processes(manifest, checkpoint, tmp_path):
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pred{threads}.tsv"
        result = CliRunner().invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                           "--manifest", str(manifest), "-o", str(out)],
                                    env={"BGT_THREADS": threads})
        assert result.exit_code == 0, result.output
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("doc", BAD_CONFIGS)
def test_cv_with_a_bad_config_exits_2_before_output(manifest, tmp_path, doc):
    out = tmp_path / "cv"
    result = CliRunner().invoke(main, ["cv", "--manifest", str(manifest), "--manifest",
                                       str(manifest), "-o", str(out), "--epochs", "1",
                                       "--config", write_config(tmp_path / "c.json", doc)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "Traceback" not in result.output
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_cv_with_a_diverging_fold_exits_3(manifest, tmp_path):
    other = synth(tmp_path / "other", "--slide-id", "other")
    out = tmp_path / "cv"
    result = CliRunner().invoke(main, ["cv", "--manifest", str(manifest), "--manifest",
                                       str(other), "-o", str(out), "--epochs", "1",
                                       "--d-model", "8", "--n-heads", "2", "--k-genes", "4",
                                       "--d-context", "3", "--batch-size", "4",
                                       "--lr", "1e100"],
                                env={"BGT_THREADS": "2"})
    assert result.exit_code == 3, result.output
    assert "error: non-finite loss" in result.stderr
    assert not (out / "aggregate.json").exists()


@pytest.mark.parametrize("d_context", ["1", "3", "5"])
@pytest.mark.parametrize("command", [["predict"], ["eval"], ["export-map", "--gene", "G0001"]])
def test_feature_widths_unlike_the_checkpoint_exit_4_before_output(manifest, tmp_path,
                                                                   command, d_context):
    trained = tmp_path / "trained"
    assert train(manifest, trained, "--k-genes", "4", "--d-context", d_context).exit_code == 0
    widths = {"img": 5, "edge": 3, "nuc": 7}
    dataset, _ = synth_dataset(3, 3, 4, 0.05, seed=13, stream_dims=widths)
    other = save_dataset(dataset, tmp_path / "narrow")
    out = tmp_path / "out"
    out.mkdir()
    result = CliRunner().invoke(main, [*command, "--checkpoint", str(trained / "checkpoint.bgck"),
                                       "--manifest", str(other), "-o", str(out / "result")])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    stream_dims = load_checkpoint(trained / "checkpoint.bgck")[0].config.stream_dims
    assert all(str(text) in result.output for text in (other, widths, stream_dims))
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fault", ["key", "file"])
def test_manifest_faults_exit_4_before_output(manifest, checkpoint, tmp_path, fault):
    slide = tmp_path / "slide"
    broken = synth(slide)
    if fault == "key":
        doc = json.loads(broken.read_text())
        del doc["expression"]
        broken.write_text(json.dumps(doc))
    else:
        (slide / "features" / "s0x1.img.spot.bgft").unlink()
    result = CliRunner().invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                       "--manifest", str(broken), "-o", str(tmp_path / "p.tsv")])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert ("'expression'" if fault == "key" else "s0x1.img.spot.bgft") in result.output
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("scope", ["spot", "ctx"])
@pytest.mark.parametrize("command", ["train", "cv", "predict"])
def test_a_stream_of_two_widths_exits_4_before_output(manifest, checkpoint, tmp_path, command,
                                                      scope):
    # one spot's edge tokens are 5 wide where every other spot's are 6
    ragged = synth(tmp_path / "slide")
    path = tmp_path / "slide" / "features" / f"s1x2.edge.{scope}.bgft"
    path.write_bytes(encode_bgft(np.ones((4, 5))))
    out = tmp_path / "out"
    args = {"train": ["train", "--manifest", str(ragged), "-o", str(out)],
            "cv": ["cv", "--manifest", str(manifest), "--manifest", str(ragged), "-o", str(out)],
            "predict": ["predict", "--checkpoint", str(checkpoint), "--manifest", str(ragged),
                        "-o", str(out)]}[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert all(text in result.output for text in (str(ragged), "edge", f"{scope} scope", "s1x2"))
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "eval", "predict", "export-map"])
def test_the_removed_provider_flag_exits_2_before_output(manifest, checkpoint, tmp_path, command):
    model = ["--checkpoint", str(checkpoint), "--manifest", str(manifest)]
    args = {"train": ["train", "--manifest", str(manifest)],
            "cv": ["cv", "--manifest", str(manifest), "--manifest", str(manifest)],
            "eval": ["eval", *model], "predict": ["predict", *model],
            "export-map": ["export-map", *model, "--gene", "G0001"]}[command]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*args, "--provider", "precomputed", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "--provider" in result.output
    assert not out.exists()


def test_a_manifest_with_a_toy_block_predicts_the_same_bytes(manifest, checkpoint, tmp_path):
    # manifests that bgt synth wrote before the toy provider was removed carry a "toy" block
    doc = json.loads(manifest.read_text())
    doc.update({key: str(manifest.parent / doc[key])
                for key in ("spots", "expression", "features")},
               toy={"dataset_seed": 1, "grid_tokens": 4,
                    "stream_dims": {"img": 10, "edge": 6, "nuc": 8}})
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc))
    runs = []
    for name, path in (("plain", manifest), ("legacy", legacy)):
        out = tmp_path / f"{name}.tsv"
        result = CliRunner().invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                           "--manifest", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def slide_commands(slide, checkpoint, out):
    return {"train": ["train", "--manifest", str(slide), "-o", str(out), "--epochs", "1"],
            "eval": ["eval", "--checkpoint", str(checkpoint), "--manifest", str(slide),
                     "-o", str(out)],
            "predict": ["predict", "--checkpoint", str(checkpoint), "--manifest", str(slide),
                        "-o", str(out)]}


@pytest.mark.parametrize("fault", ["count nan", "count inf", "px_x nan", "px_y -inf"])
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_non_finite_table_value_exits_4_before_output(checkpoint, tmp_path, command, fault):
    slide = synth(tmp_path / "slide")
    column, value = fault.split()
    table = tmp_path / "slide" / ("expression.tsv" if column == "count" else "spots.tsv")
    lines = table.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[{"count": 2, "px_x": 3, "px_y": 4}[column]] = value
    lines[2] = "\t".join(fields)
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, slide_commands(slide, checkpoint, out)[command])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "line 3" in result.output and "must be finite" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_slide_without_spots_exits_4_before_output(checkpoint, tmp_path, command):
    slide = synth(tmp_path / "slide")
    for table in ("spots.tsv", "expression.tsv"):
        path = tmp_path / "slide" / table
        path.write_text(path.read_text().splitlines()[0] + "\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, slide_commands(slide, checkpoint, out)[command])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "at least one" in result.output
    assert not out.exists()


@pytest.mark.parametrize("values", [np.ones((4, 2, 3)), np.full((4, 6), np.nan),
                                    np.full((4, 6), -np.inf)])
@pytest.mark.parametrize("scope", ["spot", "ctx"])
def test_a_feature_file_that_is_not_a_finite_matrix_exits_4(checkpoint, tmp_path, scope, values):
    slide = synth(tmp_path / "slide")
    (tmp_path / "slide" / "features" / f"s2x1.edge.{scope}.bgft").write_bytes(encode_bgft(values))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, slide_commands(slide, checkpoint, out)["predict"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert all(text in result.output for text in (str(slide), "edge", f"{scope} scope", "s2x1"))
    assert not out.exists()
