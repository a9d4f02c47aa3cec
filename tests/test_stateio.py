import json
import math

import numpy as np
import pytest

import thermoflow as tf
from thermoflow import stateio


def test_state_descriptor_round_trip_is_exact():
    rng = np.random.default_rng(401)
    ctx = tf.preset("grand_potential", beta=1.234567891234567, mu=-0.765432101234567)
    spec = tf.SystemSpec(
        4,
        (("H", rng.uniform(-2, 2, 4)), ("N", rng.uniform(0, 3, 4))),
        (("V", np.full(4, 7.0)),),
    )
    state = tf.QuasiclassicalState(spec, rng.dirichlet(np.ones(4)))
    text = stateio.dumps(stateio.state_to_dict(state, ctx))
    ctx2, state2 = stateio.state_from_dict(json.loads(text))
    assert ctx2 == ctx
    np.testing.assert_array_equal(state2.r, state.r)
    for (l1, e1), (l2, e2) in zip(spec.operators, state2.spec.operators):
        assert l1 == l2
        np.testing.assert_array_equal(e1, e2)
    assert state2.spec.nonstate_labels == ("V",)


def test_entropy_descriptor_without_operators():
    ctx, state = stateio.state_from_dict(
        {"representation": "entropy", "r": [0.25, 0.75]})
    assert ctx.representation == "entropy"
    assert state.spec.operators == ()
    np.testing.assert_allclose(state.r, [0.25, 0.75])


def test_missing_fields_rejected():
    with pytest.raises(ValueError):
        stateio.state_from_dict({"representation": "entropy"})
    with pytest.raises(ValueError):
        stateio.context_from_dict({"beta": 1.0})
    with pytest.raises(ValueError):
        stateio.context_from_dict([1, 2, 3])


def test_context_round_trip():
    for ctx in (
        tf.preset("entropy"),
        tf.preset("helmholtz", beta=0.5),
        tf.preset("gibbs", beta=2.0, pressure=1.5),
        tf.preset("magnetic", beta=1.0, field=[0.1, -0.2]),
    ):
        assert stateio.context_from_dict(stateio.context_to_dict(ctx)) == ctx


def test_loader_tolerates_extra_keys():
    ctx, state = stateio.state_from_dict({
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [0.0, math.log(2)]}],
        "r": [2 / 3, 1 / 3],
        "partition_function": 1.5,
    })
    assert ctx.beta == 1.0


def test_mistyped_fields_are_named():
    base = {"representation": "energy", "beta": 1.0, "intensive": [],
            "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]}], "r": [0.5, 0.5]}
    for update, field in (({"beta": "x"}, "'beta'"),
                          ({"intensive": [{"label": "mu"}]}, "'intensive'"),
                          ({"operators": "H"}, "'operators'"),
                          ({"r": [0.5, None]}, "'r'")):
        with pytest.raises(ValueError, match=f"^{field}"):
            stateio.state_from_dict({**base, **update})
        with pytest.raises(ValueError, match=f"^file.json: {field}"):
            stateio.state_from_dict({**base, **update}, "file.json")


def test_dumps_names_the_path_of_a_non_finite_value():
    payload = {"epsilon": 0.1, "rows": [[5, 0.25], [12, math.nan]],
               "fit": {"points": [[0.0, 1.0], [2.0, -math.inf]], "label": "x"}}
    with pytest.raises(ValueError) as caught:
        stateio.dumps(payload)
    assert str(caught.value) == "'rows[1][1]' is nan; strict JSON has no inf or nan"
    del payload["rows"]
    with pytest.raises(ValueError, match=r"^'fit\.points\[1\]\[1\]' is -inf; strict JSON"):
        stateio.dumps(payload)
    payload["fit"]["points"][1][1] = 3.0
    assert json.loads(stateio.dumps(payload)) == payload
