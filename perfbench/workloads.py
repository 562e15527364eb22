"""The benchmark's workloads: whole-slide predict, training and LOSO CV.

Each workload builds its inputs from the run seed in ``setup``, runs one
repetition per ``rep`` call (the timed part) and checks that
repetition's outputs in ``check`` (untimed). The synth, init and shuffle
seeds are derived from the run seed here; the program only receives the
generated inputs. Every workload uses the default ``ModelConfig``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import asdict, dataclass

import numpy as np

N_GENES = 64
NOISE_SD = 0.05
D_CONTEXT = 5
EPOCHS = 1          # per training repetition and per CV fold
CV_SLIDES = 3
CV_WORKERS = 2      # fold threads; with one BLAS thread each, within two cores
CHECK_SPOTS = 3     # spots whose predicted rows are recomputed one at a time
CHECK_TOL = 1e-12


def derive(seed, label):
    """A 32-bit seed for one input of the run, stable across program versions."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")


def _all_finite(values):
    return all(math.isfinite(v) for v in values)


@dataclass
class Predict:
    """Repeated in-process ``bgt predict`` on one synthetic slide.

    An operation is one invocation. Its TSV must parse to finite values,
    match single-spot ``slide_forward`` rows for a seeded sample of spots
    and be byte-identical across invocations.
    """

    rows: int = 20
    cols: int = 20
    kind = "predict"

    def setup(self, seed, workdir):
        from bgtriplex import cli
        from bgtriplex.checkpoint import save_checkpoint
        from bgtriplex.data import save_dataset, synth_dataset
        from bgtriplex.model import ModelConfig, ModelParams

        dataset, _ = synth_dataset(self.rows, self.cols, N_GENES, NOISE_SD,
                                   derive(seed, "synth"), slide_id="bench")
        manifest = save_dataset(dataset, workdir / "slide")
        params = ModelParams(ModelConfig(), k_genes=N_GENES, seed=derive(seed, "init"))
        checkpoint = workdir / "model.bgck"
        save_checkpoint(checkpoint, params, D_CONTEXT, dataset.expr.genes)
        out = workdir / "pred.tsv"
        return {
            "command": cli.main,
            "args": ["predict", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
                     "-o", str(out)],
            "out": out, "checkpoint": checkpoint, "manifest": manifest,
            "genes": list(dataset.expr.genes), "n_spots": dataset.n_spots,
            "sample": np.random.default_rng(derive(seed, "check")).choice(
                dataset.n_spots, size=CHECK_SPOTS, replace=False),
            "first_bytes": None, "first_ok": False,
        }

    def ops_per_rep(self, state):
        return 1

    def spots_per_rep(self, state):
        return state["n_spots"]

    def own_metrics(self, state, best_s):
        return {"predict_spots_per_s": (state["n_spots"] / best_s, "1/s")}

    def rep(self, state):
        echoed = io.StringIO()
        with contextlib.redirect_stdout(echoed):
            state["command"].main(args=state["args"], standalone_mode=False)
        return echoed.getvalue()

    def check(self, state, echoed):
        if echoed != f"wrote {state['out']}\n":
            return False
        blob = state["out"].read_bytes()
        if state["first_bytes"] is None:
            # The full check runs once; its verdict holds for every later
            # invocation, which must repeat the first one's bytes.
            pred = self._parse(state, blob.decode("utf-8"))
            state["first_ok"] = (pred is not None
                                 and self._matches_single_spot_forward(state, pred))
            state["first_bytes"] = blob
        return state["first_ok"] and blob == state["first_bytes"]

    def _parse(self, state, text):
        lines = text.split("\n")
        if lines[0] != "spot_id\t" + "\t".join(state["genes"]) or lines[-1] != "":
            return None
        rows = [line.split("\t")[1:] for line in lines[1:-1]]
        if len(rows) != state["n_spots"] or any(len(r) != N_GENES for r in rows):
            return None
        pred = np.array(rows, dtype=np.float64)
        return pred if np.isfinite(pred).all() else None

    def _matches_single_spot_forward(self, state, pred):
        from bgtriplex.checkpoint import load_checkpoint
        from bgtriplex.data import load_dataset
        from bgtriplex.model import slide_forward

        params, d_context, _ = load_checkpoint(state["checkpoint"])
        dataset = load_dataset(state["manifest"])
        for s in state["sample"]:
            (_, preds), = slide_forward(dataset, params, params.config, d_context,
                                        spot_indices=[int(s)])
            if np.max(np.abs(preds["fused"].data[0] - pred[s])) > CHECK_TOL:
                return False
        return True


@dataclass
class Train:
    """``training.train`` from a fresh seeded model, one epoch per repetition.

    An operation is one training step. Losses and parameters must be
    finite, and every repetition must repeat the first one's loss log.
    """

    rows: int = 20
    cols: int = 20
    kind = "train"

    def setup(self, seed, workdir):
        from bgtriplex import training
        from bgtriplex.data import synth_dataset
        from bgtriplex.model import ModelConfig, ModelParams

        dataset, _ = synth_dataset(self.rows, self.cols, N_GENES, NOISE_SD,
                                   derive(seed, "synth"), slide_id="bench")
        targets, _, _ = training.gene_targets([dataset], N_GENES)
        cfg = training.TrainConfig(k_genes=N_GENES, epochs=EPOCHS, seed=derive(seed, "shuffle"))
        return {
            "training": training, "dataset": dataset, "targets": targets, "cfg": cfg,
            "make_params": functools.partial(ModelParams, ModelConfig(), k_genes=N_GENES,
                                             seed=derive(seed, "init")),
            "first_log": None,
        }

    def ops_per_rep(self, state):
        return math.ceil(state["dataset"].n_spots / state["cfg"].batch_size) * EPOCHS

    def spots_per_rep(self, state):
        return state["dataset"].n_spots * EPOCHS

    def own_metrics(self, state, best_s):
        return {"train_spots_per_s": (self.spots_per_rep(state) / best_s, "1/s"),
                "train_loss": (state["first_log"][-1]["loss_total"] if state["first_log"]
                               else 0.0, "1")}

    def rep(self, state):
        params = state["make_params"]()
        log = state["training"].train([state["dataset"]], params, state["cfg"],
                                      targets=state["targets"])
        return log, params

    def check(self, state, result):
        log, params = result
        rows = [asdict(stats) for stats in log]
        if len(rows) != EPOCHS or not all(_all_finite(r.values()) for r in rows):
            return False
        if not all(np.isfinite(t.data).all() for _, t in params.named()):
            return False
        if state["first_log"] is None:
            state["first_log"] = rows
        return rows == state["first_log"]


@dataclass
class CrossValidate:
    """Leave-one-slide-out ``training.cross_validate`` over small slides.

    An operation is one fold. Fold reports must be finite and every
    repetition must repeat the first one's aggregate exactly.
    """

    rows: int = 8
    cols: int = 8
    kind = "cv"

    def setup(self, seed, workdir):
        from bgtriplex import training
        from bgtriplex.data import synth_dataset
        from bgtriplex.model import ModelConfig, ModelParams

        datasets = [synth_dataset(self.rows, self.cols, N_GENES, NOISE_SD, derive(seed, "synth"),
                                  slide_id=f"bench{i}")[0] for i in range(CV_SLIDES)]
        cfg = training.TrainConfig(k_genes=N_GENES, epochs=EPOCHS, seed=derive(seed, "shuffle"))
        model_config = ModelConfig()
        return {
            "training": training, "datasets": datasets, "cfg": cfg,
            "model_config": model_config,
            "make_params": functools.partial(ModelParams, model_config, k_genes=N_GENES,
                                             seed=derive(seed, "init")),
            "first_aggregate": None,
        }

    def ops_per_rep(self, state):
        return CV_SLIDES

    def spots_per_rep(self, state):
        """Spot-samples a CV run processes: training spots per epoch plus held-out spots."""
        sizes = [ds.n_spots for ds in state["datasets"]]
        return sum((sum(sizes) - held) * EPOCHS + held for held in sizes)

    def own_metrics(self, state, best_s):
        first = state["first_aggregate"]
        return {"cv_s": (best_s, "s"), "cv_pcc_m": (first["pcc_m"][0] if first else 0.0, "1")}

    def rep(self, state):
        return state["training"].cross_validate(
            state["datasets"], state["cfg"], state["model_config"],
            make_params=state["make_params"], workers=CV_WORKERS)

    def check(self, state, result):
        reports, aggregate = result
        if len(reports) != CV_SLIDES:
            return False
        if not all(_all_finite((r.mse, r.pcc_m, r.pcc_h)) for r in reports):
            return False
        if state["first_aggregate"] is None:
            state["first_aggregate"] = aggregate
        return aggregate == state["first_aggregate"]


WORKLOADS = {
    "predict_20x20": Predict(),
    "train_20x20": Train(),
    "cv_3x8x8": CrossValidate(),
}

KINDS = {"predict": Predict, "train": Train, "cv": CrossValidate}


def to_spec(workload):
    return {"kind": workload.kind, **asdict(workload)}


def from_spec(spec):
    spec = dict(spec)
    return KINDS[spec.pop("kind")](**spec)
