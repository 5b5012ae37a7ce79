"""Tests for the generic Trainer loop and the evaluation metrics."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, DataLoader
from repro.models import MLP
from repro.optim import SGD, ConstantLR
from repro.tensor import Tensor, functional as F
from repro.train import (
    AverageMeter,
    Callback,
    Trainer,
    accuracy,
    classification_metric,
    f1_score,
    matthews_corrcoef,
    mlm_loss,
    spearman_correlation,
    top_k_accuracy,
)
from repro.utils import get_rng


def toy_loaders(n=200, dim=10, classes=3):
    rng = get_rng(offset=55)
    centers = 4 * rng.standard_normal((classes, dim))
    labels = rng.integers(0, classes, size=n)
    features = (centers[labels] + rng.standard_normal((n, dim))).astype(np.float32)
    ds = ArrayDataset(features, labels.astype(np.int64))
    split = int(0.8 * n)
    from repro.data import Subset
    return (DataLoader(Subset(ds, range(split)), batch_size=32, shuffle=True),
            DataLoader(Subset(ds, range(split, n)), batch_size=32))


class TestMetrics:
    def test_accuracy_perfect_and_zero(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_top_k(self):
        logits = np.array([[3.0, 2.0, 1.0, 0.0]])
        assert top_k_accuracy(logits, np.array([2]), k=3) == 1.0
        assert top_k_accuracy(logits, np.array([3]), k=3) == 0.0

    def test_top_k_caps_at_num_classes(self):
        logits = np.array([[1.0, 0.0]])
        assert top_k_accuracy(logits, np.array([1]), k=10) == 1.0

    def test_accuracy_requires_2d(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(3))

    def test_f1_score(self):
        preds = np.array([1, 1, 0, 0, 1])
        targets = np.array([1, 0, 0, 1, 1])
        # tp=2, fp=1, fn=1 → precision=2/3, recall=2/3 → f1=2/3.
        assert f1_score(preds, targets) == pytest.approx(2 / 3)

    def test_f1_zero_when_no_true_positives(self):
        assert f1_score(np.zeros(4), np.ones(4)) == 0.0

    def test_matthews_perfect_and_random(self):
        assert matthews_corrcoef(np.array([1, 0, 1]), np.array([1, 0, 1])) == pytest.approx(1.0)
        assert matthews_corrcoef(np.array([1, 1, 1]), np.array([1, 0, 1])) == 0.0

    def test_spearman_monotone_relationship(self):
        x = np.arange(10, dtype=float)
        assert spearman_correlation(x, x ** 3) == pytest.approx(1.0)
        assert spearman_correlation(x, -x) == pytest.approx(-1.0)

    def test_spearman_constant_input(self):
        assert spearman_correlation(np.ones(5), np.arange(5)) == 0.0

    def test_spearman_ties_share_average_rank(self):
        # Ranks [1, 2.5, 2.5, 4] against [1, 3, 2, 4]: 4.5 / sqrt(4.5 * 5).
        assert spearman_correlation([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(3 / np.sqrt(10))

    def test_spearman_nan_input(self):
        assert spearman_correlation(np.array([1.0, np.nan, 3.0]), np.arange(3.0)) == 0.0
        assert spearman_correlation(np.arange(3.0), np.array([np.nan, 1.0, 2.0])) == 0.0

    def test_spearman_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="3 predictions and 2 targets"):
            spearman_correlation(np.arange(3.0), np.arange(2.0))

    def test_spearman_matches_scipy_on_tied_inputs(self):
        stats = pytest.importorskip("scipy.stats", exc_type=ImportError)
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(3, 40))
            predictions = rng.integers(0, 5, size).astype(np.float32)
            targets = rng.integers(0, 4, size) / 2.0
            if np.ptp(predictions) == 0 or np.ptp(targets) == 0:
                continue
            expected = stats.spearmanr(predictions, targets)[0]
            assert spearman_correlation(predictions, targets) == pytest.approx(expected, abs=1e-12)

    def test_classification_metric_dispatch(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        targets = np.array([0, 1])
        assert classification_metric("accuracy", logits, targets) == 1.0
        assert classification_metric("f1", logits, targets) == 1.0
        with pytest.raises(KeyError):
            classification_metric("bleu", logits, targets)

    def test_mlm_loss_ignores_unmasked(self):
        logits = np.zeros((1, 3, 4))
        labels = np.array([[1, -100, -100]])
        assert mlm_loss(logits, labels) == pytest.approx(np.log(4))

    def test_mlm_loss_all_ignored(self):
        assert mlm_loss(np.zeros((1, 2, 4)), np.full((1, 2), -100)) == 0.0

    def test_average_meter(self):
        meter = AverageMeter()
        meter.update(1.0, n=2)
        meter.update(4.0, n=1)
        assert meter.average == pytest.approx(2.0)
        meter.reset()
        assert meter.average == 0.0


class TestTrainer:
    def test_training_reduces_loss(self):
        train_loader, val_loader = toy_loaders()
        model = MLP(10, [32], 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.2, momentum=0.9),
                          train_loader, val_loader)
        history = trainer.fit(6)
        assert history[-1].train_loss < history[0].train_loss
        assert trainer.final_val_accuracy() > 0.6

    def test_history_records_parameters_and_lr(self):
        train_loader, val_loader = toy_loaders()
        model = MLP(10, [16], 3)
        optimizer = SGD(model.parameters(), lr=0.05)
        trainer = Trainer(model, optimizer, train_loader, val_loader,
                          scheduler=ConstantLR(optimizer))
        trainer.fit(2)
        record = trainer.history[-1]
        assert record.num_parameters == model.num_parameters()
        assert record.lr == pytest.approx(0.05)
        assert record.epoch_seconds > 0

    def test_callbacks_invoked_in_order(self):
        events = []

        class Recorder(Callback):
            def on_train_begin(self, trainer):
                events.append("begin")
            def on_epoch_end(self, trainer, epoch, logs):
                events.append(f"epoch{epoch}")
            def on_train_end(self, trainer):
                events.append("end")

        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                callbacks=[Recorder()]).fit(2)
        assert events == ["begin", "epoch0", "epoch1", "end"]

    def test_step_level_callback_ordering(self):
        events = []

        class Recorder(Callback):
            def on_train_begin(self, trainer):
                events.append("begin")
            def on_batch_begin(self, trainer, batch_index, batch):
                events.append(f"batch_begin{batch_index}")
            def on_batch_end(self, trainer, batch_index, logs):
                assert "loss" in logs
                events.append(f"batch_end{batch_index}")
            def on_evaluate_end(self, trainer, logs):
                assert "accuracy" in logs
                events.append("evaluate_end")
            def on_epoch_end(self, trainer, epoch, logs):
                events.append(f"epoch_end{epoch}")
            def on_train_end(self, trainer):
                events.append("end")

        train_loader, val_loader = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        Trainer(model, SGD(model.parameters(), lr=0.1), train_loader, val_loader,
                callbacks=[Recorder()], max_batches_per_epoch=2).fit(2)
        per_epoch = ["batch_begin0", "batch_end0", "batch_begin1", "batch_end1", "evaluate_end"]
        assert events == (["begin"] + per_epoch + ["epoch_end0"]
                          + per_epoch + ["epoch_end1"] + ["end"])

    def test_step_callbacks_see_batch_accuracy_on_default_loss_path(self):
        batch_logs = []

        class Recorder(Callback):
            def on_batch_end(self, trainer, batch_index, logs):
                batch_logs.append(logs)

        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                callbacks=[Recorder()]).fit(1)
        assert all("accuracy" in logs for logs in batch_logs)

    def test_train_accuracy_is_real_on_default_loss_path(self):
        train_loader, val_loader = toy_loaders()
        model = MLP(10, [32], 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.2, momentum=0.9),
                          train_loader, val_loader)
        history = trainer.fit(6)
        # A separable toy task: the running train accuracy must move well away
        # from the constant 0.0 the old loop reported, and end near the val acc.
        assert history[-1].train_accuracy > 0.6
        assert history[-1].train_accuracy > history[0].train_accuracy - 0.05
        assert 0.0 <= history[-1].train_accuracy <= 1.0

    def test_train_accuracy_absent_for_custom_loss(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        def custom_loss(m, batch):
            return F.cross_entropy(m(batch[0]), batch[-1])
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                          loss_fn=custom_loss)
        history = trainer.fit(1)
        # No logits recorded -> the accuracy meter never updates and reports 0.
        assert history[-1].train_accuracy == 0.0

    def test_loss_hook_adds_penalty(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        calls = []
        def hook(m):
            calls.append(1)
            return None
        Trainer(model, SGD(model.parameters(), lr=0.1), train_loader, loss_hook=hook).fit(1)
        assert len(calls) == len(train_loader)

    def test_add_grad_hook_composes_instead_of_clobbering(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        calls = []
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                          grad_hook=lambda m: calls.append("first"),
                          max_batches_per_epoch=1)
        second = lambda m: calls.append("second")
        trainer.add_grad_hook(second)
        trainer.add_grad_hook(second)   # re-entrant fit must not stack duplicates
        trainer.fit(1)
        assert calls == ["first", "second"]

    def test_grad_hook_can_zero_gradients(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        initial = {name: p.data.copy() for name, p in model.named_parameters()}

        def freeze_all(m):
            for p in m.parameters():
                if p.grad is not None:
                    p.grad[:] = 0.0

        Trainer(model, SGD(model.parameters(), lr=0.5), train_loader, grad_hook=freeze_all).fit(1)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.data, initial[name])

    def test_max_batches_per_epoch(self):
        train_loader, _ = toy_loaders(n=160)
        model = MLP(10, [8], 3)
        seen = []
        def counting_loss(m, batch):
            seen.append(1)
            return F.cross_entropy(m(batch[0]), batch[-1])
        Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                loss_fn=counting_loss, max_batches_per_epoch=2).fit(1)
        assert len(seen) == 2

    def test_evaluate_reports_top5(self):
        train_loader, val_loader = toy_loaders()
        model = MLP(10, [8], 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train_loader, val_loader)
        stats = trainer.evaluate()
        assert set(stats) == {"loss", "accuracy", "top5"}
        assert stats["top5"] >= stats["accuracy"]

    def test_evaluate_without_loader_returns_empty(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        assert Trainer(model, SGD(model.parameters(), lr=0.1), train_loader).evaluate() == {}

    def test_rebuild_optimizer_params(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        optimizer = SGD(model.parameters(), lr=0.1)
        trainer = Trainer(model, optimizer, train_loader)
        model.classifier = nn.Linear(8, 3)
        trainer.rebuild_optimizer_params()
        assert {id(p) for p in optimizer.params} == {id(p) for p in model.parameters()}

    def test_best_and_final_accuracy_nan_without_validation(self):
        train_loader, _ = toy_loaders(n=64)
        model = MLP(10, [8], 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train_loader)
        trainer.fit(1)
        assert np.isnan(trainer.best_val_accuracy())


class TestDegenerateMetricInputs:
    """0/0 cases must be defined as 0.0, never NaN or ZeroDivisionError."""

    def test_f1_no_positive_predictions(self):
        preds = np.zeros(6, dtype=np.int64)
        targets = np.array([0, 0, 1, 1, 0, 1])
        assert f1_score(preds, targets) == 0.0

    def test_f1_no_positive_targets(self):
        preds = np.array([1, 0, 1, 0])
        targets = np.zeros(4, dtype=np.int64)
        assert f1_score(preds, targets) == 0.0

    def test_f1_empty_batch(self):
        assert f1_score(np.array([]), np.array([])) == 0.0

    def test_matthews_single_class_targets(self):
        preds = np.array([0, 1, 0, 1])
        targets = np.zeros(4, dtype=np.int64)
        value = matthews_corrcoef(preds, targets)
        assert value == 0.0 and np.isfinite(value)

    def test_matthews_single_class_predictions(self):
        preds = np.ones(4, dtype=np.int64)
        targets = np.array([0, 1, 0, 1])
        assert matthews_corrcoef(preds, targets) == 0.0

    def test_matthews_empty_batch(self):
        assert matthews_corrcoef(np.array([]), np.array([])) == 0.0

    def test_spearman_constant_predictions(self):
        preds = np.full(5, 2.5)
        targets = np.arange(5.0)
        assert spearman_correlation(preds, targets) == 0.0

    def test_spearman_constant_targets(self):
        assert spearman_correlation(np.arange(5.0), np.full(5, 1.0)) == 0.0

    def test_spearman_empty_batch(self):
        assert spearman_correlation(np.array([]), np.array([])) == 0.0

    def test_average_meter_well_defined_before_first_update(self):
        meter = AverageMeter()
        assert meter.average == 0.0
        assert meter.avg == 0.0          # torch-style alias, same semantics
        meter.update(3.0, n=2)
        assert meter.avg == pytest.approx(3.0)
        assert meter.avg == meter.average


class TestTrainerTelemetry:
    def test_registry_counts_steps_and_samples(self):
        from repro.telemetry import validate_snapshot

        train, val = toy_loaders()
        model = MLP(10, [16], 3, rng=get_rng(offset=1))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train, val)
        trainer.train_epoch()
        snap = trainer.metrics.snapshot()
        validate_snapshot(snap)
        assert snap["namespace"] == "train"
        assert snap["counters"]["steps_total"] == 5       # 160 samples / 32
        assert snap["counters"]["samples_total"] == 160
        assert snap["collected"]["pipeline"]["batches"] == 5
        assert "op_counters" in snap["collected"]

    def test_traced_epoch_records_step_phases(self):
        from repro.telemetry import tracing

        train, val = toy_loaders()
        model = MLP(10, [16], 3, rng=get_rng(offset=1))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train, val)
        session = tracing.enable("t")
        try:
            trainer.train_epoch()
            trainer.evaluate()
        finally:
            tracing.disable()
        names = [ev[0] for ev in session.events]
        assert names.count("step") == 5
        for phase in ("data_wait", "forward", "backward", "optimizer",
                      "accounting"):
            assert names.count(phase) == 5
        assert "eval" in names
        # Children must account for essentially the whole step (the ≥95%
        # acceptance bar): the phases partition requested→compute_end.
        summary = tracing.summarize_trace(session.event_dicts())
        assert summary["coverage"]["fraction"] >= 0.99

    def test_untraced_epoch_records_nothing(self):
        from repro.telemetry import tracing

        train, val = toy_loaders()
        model = MLP(10, [16], 3, rng=get_rng(offset=1))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train, val)
        trainer.train_epoch()
        assert tracing.current_session() is None
