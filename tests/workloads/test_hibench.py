"""HiBench workload tests: the ML/micro/graph programs really work."""

import numpy as np
import pytest

from repro.harness.profile import ComputeStage, ShuffleReadStage, ShuffleWriteStage
from repro.harness.systems import FRONTERA, STAMPEDE2
from repro.spark import SparkConf, SparkContext
from repro.workloads.hibench import SPECS, MAX_SIMULATED_ROUNDS
from repro.workloads.hibench import datagen, micro
from repro.workloads.hibench.graph import nweight
from repro.workloads.hibench.ml import (
    classify,
    train_gmm,
    train_lda,
    train_logistic_regression,
    train_svm,
)


@pytest.fixture
def sc():
    return SparkContext(SparkConf({"spark.default.parallelism": "4"}))


class TestMlWorkloads:
    def test_logistic_regression_learns(self, sc):
        w = train_logistic_regression(sc, n_points=1200, dim=8, iterations=6)
        test = datagen.labeled_points(sc, 400, 8, 2, seed=77).collect()
        acc = sum(1 for y, x in test if classify(w, x) == y) / len(test)
        assert acc > 0.85

    def test_svm_learns(self, sc):
        w = train_svm(sc, n_points=1200, dim=8, iterations=6)
        test = datagen.labeled_points(sc, 400, 8, 2, seed=78).collect()
        acc = sum(1 for y, x in test if classify(w, x) == y) / len(test)
        assert acc > 0.85

    def test_gmm_recovers_components(self, sc):
        weights, means = train_gmm(sc, n_points=900, dim=2, k=3, iterations=6)
        first_dims = np.sort(means[:, 0])
        assert np.allclose(first_dims, [0.0, 3.0, 6.0], atol=0.5)
        assert weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_lda_produces_distributions(self, sc):
        wt = train_lda(sc, n_docs=120, vocab=60, n_topics=3, iterations=2)
        assert len(wt) > 10
        for dist in wt.values():
            assert dist.shape == (3,)
            assert dist.sum() == pytest.approx(1.0, abs=1e-6)
            assert (dist >= 0).all()

    def test_lda_shuffles_every_iteration(self, sc):
        train_lda(sc, n_docs=60, vocab=40, n_topics=2, iterations=3)
        shuffle_stages = [
            st
            for job in sc.tracer.jobs
            for st in job.stages
            if st.kind == "ShuffleMapStage"
        ]
        assert len(shuffle_stages) >= 3  # one reduceByKey per iteration


class TestMicroWorkloads:
    def test_terasort_sorts(self, sc):
        result = micro.terasort(sc, n_records=600, num_partitions=4)
        keys = [k for k, _ in result.collect()]
        assert keys == sorted(keys)
        assert len(keys) == 600

    def test_repartition_preserves_records(self, sc):
        result = micro.repartition(sc, n_records=500, num_partitions=4,
                                   target_partitions=7)
        assert result.num_partitions == 7
        assert result.count() == 500


class TestGraphWorkload:
    def test_nweight_finds_two_hop_paths(self, sc):
        result = dict(nweight(sc, n_vertices=60, avg_degree=3, hops=2).collect())
        assert result  # non-empty association lists
        for v, assoc in result.items():
            assert len(assoc) <= 10  # top-k pruning
            weights = [w for _, w in assoc]
            assert weights == sorted(weights, reverse=True)

    def test_nweight_uses_joins(self, sc):
        nweight(sc, n_vertices=40, avg_degree=2, hops=2).collect()
        shuffles = [
            st for job in sc.tracer.jobs for st in job.stages
            if st.kind == "ShuffleMapStage"
        ]
        assert len(shuffles) >= 3  # reduceByKey + join's two sides


class TestHiBenchProfiles:
    def test_all_table4_workloads_have_specs(self):
        assert set(SPECS) == {
            "SVM", "LR", "GMM", "LDA", "Repartition", "TeraSort", "NWeight"
        }

    def test_iterative_profile_structure(self):
        prof = SPECS["LDA"].build_profile(FRONTERA, 16, fidelity=0.25)
        kinds = [type(s).__name__ for s in prof.stages]
        # gen + rounds x (compute, write, read)
        assert kinds[0] == "ComputeStage"
        rounds = (len(prof.stages) - 1) // 3
        assert rounds == min(MAX_SIMULATED_ROUNDS, 20)
        assert kinds[1:4] == ["ComputeStage", "ShuffleWriteStage", "ShuffleReadStage"]

    def test_one_shot_profile_structure(self):
        prof = SPECS["Repartition"].build_profile(FRONTERA, 16, fidelity=0.25)
        labels = [s.label for s in prof.stages]
        assert labels[0] == "Job0-ResultStage"
        assert "Job1-ShuffleMapStage" in labels
        assert "Job1-ResultStage" in labels
        assert labels[-1] == "JobN-HdfsOutputStage"

    def test_round_folding_preserves_total_shuffle(self):
        prof = SPECS["SVM"].build_profile(FRONTERA, 16, fidelity=0.25)
        total = sum(
            s.fetch_bytes.sum() for s in prof.stages if isinstance(s, ShuffleReadStage)
        )
        from repro.workloads.calibration import COSTS

        expected = SPECS["SVM"].shuffle_bytes_per_round * COSTS["SVM"].iterations
        assert total == pytest.approx(expected, rel=0.01)

    def test_hyperthreading_inflates_per_thread_costs(self):
        ht = SPECS["GMM"].build_profile(STAMPEDE2, 8, cores_per_executor=96, fidelity=0.25)
        no_ht = SPECS["GMM"].build_profile(STAMPEDE2, 8, cores_per_executor=48, fidelity=0.5)
        # Same total cores-worth of work, but 96 threads at 0.6 efficiency
        # must not beat 48 dedicated cores by the naive 2x.
        t_ht = ht.stages[1].seconds_per_task.mean() * 96
        t_no = no_ht.stages[1].seconds_per_task.mean() * 48
        assert t_ht > t_no  # HT thread-seconds exceed core-seconds

    @pytest.mark.parametrize(
        "n_workers, fidelity, param",
        [
            (16, 0.0, "fidelity"),
            (16, 1.01, "fidelity"),
            (0, 0.25, "n_workers"),
        ],
    )
    def test_invalid_inputs_rejected_at_the_boundary(self, n_workers, fidelity, param):
        with pytest.raises(ValueError, match=param):
            SPECS["TeraSort"].build_profile(FRONTERA, n_workers, fidelity=fidelity)

    def test_negative_nominal_bytes_rejected(self):
        import dataclasses

        spec = dataclasses.replace(SPECS["TeraSort"], nominal_bytes=-1)
        with pytest.raises(ValueError, match="nominal_bytes"):
            spec.build_profile(FRONTERA, 16, fidelity=0.25)

    def test_terasort_has_hdfs_output(self):
        prof = SPECS["TeraSort"].build_profile(FRONTERA, 16, fidelity=0.25)
        assert prof.stages[-1].label == "JobN-HdfsOutputStage"
        # Replicated output is slower than the unreplicated input read.
        assert prof.stages[-1].seconds_per_task.mean() > 0
