"""The tracer wraps and restores the program's names and times spans correctly."""

import numpy as np

from tracer import Tracer, install_aphynity, self_and_total


def test_install_wraps_and_restore_puts_back_every_name():
    tracer = Tracer()
    install_aphynity(tracer)
    wrapped = list(tracer.patches)
    try:
        assert len(wrapped) > 40
        assert len({(id(owner), attr) for owner, attr, _ in wrapped}) == len(wrapped)
        for owner, attr, original in wrapped:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not original and current.__wrapped__ is original
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner!r}.{attr} was not restored"
    assert tracer.patches == []


def test_traced_calls_record_spans_counts_and_unchanged_results():
    from aphynity import diffcore as dc
    from aphynity.augments import MlpAugmentation, MlpSpec

    def run():
        mlp = MlpAugmentation(MlpSpec(hidden=8, depth=2), seed=0)
        loss = dc.sum_all(dc.square(mlp(dc.Tensor(np.ones((3, 2))))))
        dc.backward(loss)
        return float(loss.values), mlp.params["w0"].grad.copy()

    plain = run()
    tracer = Tracer()
    install_aphynity(tracer)
    try:
        traced = run()
    finally:
        tracer.restore()
    assert traced[0] == plain[0] and np.array_equal(traced[1], plain[1])
    names = [tracer.names[int(row[0])] for row in tracer.span_array()]
    assert names.count("diffcore.affine") == 3
    assert names.count("augments.mlp") == 1 and names.count("diffcore.backward") == 1
    # affine flops from shapes: (3,2)@(2,8), (3,8)@(8,8), (3,8)@(8,2)
    assert tracer.counts["affine_flop"] == 2 * 3 * (2 * 8 + 8 * 8 + 8 * 2)
    spans = tracer.span_array()
    mlp_row = spans[names.index("augments.mlp")]
    assert all(spans[i, 3] == names.index("augments.mlp")
               for i, n in enumerate(names) if n == "diffcore.affine")
    assert mlp_row[3] == -1


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 3], b [4, 9] -> c [5, 6]; a second root d [11, 12]
    spans = np.array([
        [0, 0.0, 10.0, -1],
        [1, 1.0, 3.0, 0],
        [1, 4.0, 9.0, 0],
        [2, 5.0, 6.0, 2],
        [0, 11.0, 12.0, -1],
    ])
    self_s, total_s = self_and_total(spans, 3)
    assert np.allclose(self_s, [10 - 2 - 5 + 1, 2 + 4, 1])
    assert np.allclose(total_s, [11, 7, 1])
    assert np.isclose(self_s.sum(), 10 + 1)   # self times partition the roots


def test_begin_end_nest_spans_under_their_parent():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    spans = tracer.span_array()
    assert spans[inner, 3] == outer and spans[outer, 3] == -1
    assert spans[outer, 1] <= spans[inner, 1] <= spans[inner, 2] <= spans[outer, 2]
