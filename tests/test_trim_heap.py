import numpy as np
import pytest

from gbmlab import generators as gen, graph, recovery
from gbmlab.generators import IntervalSet


@pytest.fixture
def trims(monkeypatch):
    calls = []
    monkeypatch.setattr(graph, "trim_heap", lambda: calls.append(1))
    return calls


class TestTrimsHeap:
    def test_every_pair_sized_call_trims_once(self, trims):
        inst = gen.gen_gbm_t(400, 2, 0.3, 0.1, 1)
        assert trims == [1]
        recovery.recover_gbm_hd(inst.graph, 2, 0.3, 0.1)
        gen.gen_rag_t(400, 2, 0.0, 0.2, 1)
        circle = gen.gen_gbm1(400, 0.05, 0.01, 1)
        recovery.recover_gbm1(circle.graph, 2.0, 0.4)
        recovery.recover_with_locations(circle.graph, circle.embeddings, 0.05, 0.01)
        gen.gen_interval_union_graph(400, IntervalSet(((0.0, 0.01), (0.02, 0.03))), 1)
        assert trims == [1] * 7
        # gen_rag1 is gen_interval_union_graph with one band
        gen.gen_rag1(400, 0.0, 0.01, 1)
        assert trims == [1] * 8

    def test_trims_when_the_call_raises(self, trims):
        with pytest.raises(ValueError):
            gen.gen_gbm_t(400, 2, 0.1, 0.3, 1)
        assert trims == [1]

    def test_wrapper_keeps_name_and_result(self, trims):
        assert recovery.recover_gbm_hd.__name__ == "recover_gbm_hd"
        a = gen.gen_gbm_t(300, 2, 0.3, 0.1, 5)
        b = gen.gen_gbm_t.__wrapped__(300, 2, 0.3, 0.1, 5)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert trims == [1]
