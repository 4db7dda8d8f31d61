"""Training loops."""

import numpy as np
import pytest

from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet
from repro.train.trainer import History, TrainConfig, Trainer


def _tiny(tiny_dataset):
    spec = tiny_dataset.spec
    return spec.input_vocab, spec.output_vocab, spec.input_length


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainConfig(early_stopping_patience=0)


class TestFitClassification:
    def test_loss_decreases(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "memcom",
            spec.input_vocab,
            spec.output_vocab,
            input_length=spec.input_length,
            embedding_dim=16,
            rng=0,
            num_hash_embeddings=spec.input_vocab // 8,
        )
        cfg = TrainConfig(epochs=4, batch_size=64, lr=3e-3, seed=0)
        hist = Trainer(cfg).fit(model, ds.x_train, ds.y_train, ds.x_eval, ds.y_eval)
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert len(hist.val_metric) == len(hist.train_loss)
        assert hist.metric_name == "accuracy"

    def test_model_left_in_eval_mode(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        Trainer(TrainConfig(epochs=1, batch_size=64)).fit(model, ds.x_train, ds.y_train)
        assert not model.training

    def test_no_validation_yields_nan_metric(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        hist = Trainer(TrainConfig(epochs=1, batch_size=64)).fit(model, ds.x_train, ds.y_train)
        assert np.isnan(hist.val_metric[0])

    def test_unknown_task_rejected(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        model = build_classifier(
            "full", ds.spec.input_vocab, ds.spec.output_vocab,
            input_length=ds.spec.input_length, embedding_dim=8, rng=0,
        )
        with pytest.raises(ValueError):
            Trainer().fit(model, ds.x_train, ds.y_train, task="regression")

    def test_batch_size_larger_than_data_errors(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        model = build_classifier(
            "full", ds.spec.input_vocab, ds.spec.output_vocab,
            input_length=ds.spec.input_length, embedding_dim=8, rng=0,
        )
        with pytest.raises(ValueError, match="no batches"):
            Trainer(TrainConfig(epochs=1, batch_size=10_000)).fit(model, ds.x_train, ds.y_train)


class TestEarlyStopping:
    def test_stops_and_restores_best(self, tiny_dataset):
        ds = tiny_dataset
        spec = ds.spec
        model = build_pointwise_ranker(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        cfg = TrainConfig(epochs=30, batch_size=64, lr=5e-2, seed=0, early_stopping_patience=2)
        hist = Trainer(cfg).fit(
            model, ds.x_train, ds.y_train, ds.x_eval, ds.y_eval, task="ranking"
        )
        assert len(hist.val_metric) < 30  # stopped early at this aggressive lr
        assert hist.best_epoch >= 0
        assert hist.best_metric == max(hist.val_metric)


class TestPairwise:
    def test_ranknet_loss_decreases(self, tiny_spec):
        from repro.data.synthetic import generate_pairwise

        pw = generate_pairwise(tiny_spec, np.random.default_rng(2))
        model = build_ranknet(
            "memcom",
            tiny_spec.input_vocab,
            tiny_spec.output_vocab,
            input_length=tiny_spec.input_length,
            embedding_dim=16,
            rng=0,
            num_hash_embeddings=tiny_spec.input_vocab // 8,
        )
        cfg = TrainConfig(epochs=3, batch_size=64, lr=3e-3, seed=0)
        hist = Trainer(cfg).fit(
            model, pw.x_train, pw.pos_train, pw.x_eval, pw.pos_eval,
            task="pairwise", neg=pw.neg_train,
        )
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.metric_name == "ndcg"

    def test_pairwise_accuracy_above_chance(self, tiny_spec):
        """After training, the preferred item should outscore the other in
        well over half the evaluation pairs."""
        from repro.data.synthetic import generate_pairwise
        from repro.nn.tensor import no_grad

        pw = generate_pairwise(tiny_spec, np.random.default_rng(2))
        model = build_ranknet(
            "full", tiny_spec.input_vocab, tiny_spec.output_vocab,
            input_length=tiny_spec.input_length, embedding_dim=16, rng=0,
        )
        cfg = TrainConfig(epochs=12, batch_size=64, lr=5e-3, seed=0)
        Trainer(cfg).fit(
            model, pw.x_train, pw.pos_train, task="pairwise", neg=pw.neg_train
        )
        model.eval()
        with no_grad():
            s_pos, s_neg = model.score_pair(pw.x_eval, pw.pos_eval, pw.neg_eval)
        frac = float((s_pos.data > s_neg.data).mean())
        assert frac > 0.55


class TestUnifiedFit:
    def test_pairwise_requires_neg(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        model = build_classifier(
            "full", ds.spec.input_vocab, ds.spec.output_vocab,
            input_length=ds.spec.input_length, embedding_dim=8, rng=0,
        )
        with pytest.raises(ValueError, match="neg"):
            Trainer().fit(model, ds.x_train, ds.y_train, task="pairwise")

    def test_pointwise_alias(self, tiny_dataset):
        ds = tiny_dataset
        model = build_pointwise_ranker(
            "full", ds.spec.input_vocab, ds.spec.output_vocab,
            input_length=ds.spec.input_length, embedding_dim=8, rng=0,
        )
        hist = Trainer(TrainConfig(epochs=1, batch_size=64)).fit(
            model, ds.x_train, ds.y_train, task="pointwise"
        )
        assert hist.metric_name == "ndcg"

    def test_steps_and_seconds_recorded(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        model = build_classifier(
            "full", ds.spec.input_vocab, ds.spec.output_vocab,
            input_length=ds.spec.input_length, embedding_dim=8, rng=0,
        )
        hist = Trainer(TrainConfig(epochs=2, batch_size=64)).fit(
            model, ds.x_train, ds.y_train
        )
        assert hist.steps == 2 * (len(ds.x_train) // 64)
        assert hist.seconds > 0


class TestHistory:
    def test_best_metric_requires_records(self):
        with pytest.raises(ValueError):
            History().best_metric

    def test_optimizer_variants_run(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        for opt in ("sgd", "adagrad"):
            model = build_classifier(
                "full", ds.spec.input_vocab, ds.spec.output_vocab,
                input_length=ds.spec.input_length, embedding_dim=8, rng=0,
            )
            cfg = TrainConfig(epochs=1, batch_size=64, optimizer=opt, lr=0.01)
            hist = Trainer(cfg).fit(model, ds.x_train, ds.y_train)
            assert len(hist.train_loss) == 1
