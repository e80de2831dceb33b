"""Bit-exact JSON round trips for operators and measurement objects."""

import json
import time

import numpy as np
import pytest

from lossjm import measurements as meas, parent, serialize

import oracles


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    M[0, :2] = complex(-0.0, -0.0), complex(1.0, -0.0)  # signed zeros keep their sign
    text = json.dumps(serialize.matrix_to_json(M))
    back = serialize.matrix_from_json(json.loads(text))
    assert back.tobytes() == M.tobytes()


def test_matrix_payload_shape_check():
    bad = {"rows": 2, "cols": 2, "data": [0.0] * 6}
    with pytest.raises(ValueError):
        serialize.matrix_from_json(bad)


def test_povm_roundtrip():
    p = meas.displaced_onoff(0.3 + 0.1j, 4)
    text = json.dumps(serialize.povm_to_json(p))
    back = serialize.povm_from_json(json.loads(text))
    for E, F in zip(p.elements, back.elements):
        assert np.array_equal(E, F)


def test_measurement_set_roundtrip():
    mset = meas.symmetric_family(meas.FamilyParams(3, 0.005, 0.50005, 3))
    text = json.dumps(serialize.measurement_set_to_json(mset))
    back = serialize.measurement_set_from_json(json.loads(text))
    assert back.dim == mset.dim
    for p, q in zip(mset, back):
        for E, F in zip(p.elements, q.elements):
            assert np.array_equal(E, F)


def test_povm_payload_must_match_its_dim():
    obj = serialize.povm_to_json(meas.displaced_onoff(0.3, 2))
    obj["dim"] = 7
    with pytest.raises(ValueError, match="POVM elements must be 7 x 7 matrices"):
        serialize.povm_from_json(obj)


def test_set_payload_must_match_its_dim():
    # a set declaring dim 5, holding a POVM declaring dim 7, loaded as d = 2
    obj = serialize.measurement_set_to_json(
        meas.random_measurement_set(2, 2, np.random.default_rng(4))
    )
    obj["dim"] = 5
    with pytest.raises(ValueError, match="set POVMs must have dimension 5"):
        serialize.measurement_set_from_json(obj)
    obj["povms"][1]["dim"] = 7
    with pytest.raises(ValueError, match="POVM elements must be 7 x 7 matrices"):
        serialize.measurement_set_from_json(obj)


def test_parent_roundtrip():
    rng = np.random.default_rng(4)
    mset = meas.random_measurement_set(3, 2, rng)
    par = parent.lon_parent(mset, [0.5, 0.5])
    text = json.dumps(serialize.parent_to_json(par))
    back = serialize.parent_from_json(json.loads(text))
    assert back.outcome_counts == par.outcome_counts
    assert back.blocks.tobytes() == par.blocks.tobytes()


def test_parent_payload_is_its_blocks_in_tuple_order():
    mset = meas.random_measurement_set(3, 3, np.random.default_rng(5))
    par = parent.lon_parent(mset, [0.3, 0.3, 0.3])
    obj = serialize.parent_to_json(par)
    assert obj.keys() == {"dim", "outcome_counts", "blocks"}
    for t, B in zip(np.ndindex(*par.outcome_counts), obj["blocks"]):
        # first measurement most significant
        assert np.array_equal(serialize.matrix_from_json(B), oracles.element(par, t))


@pytest.mark.parametrize(
    "edit",
    [
        (lambda blocks: blocks.pop(3), "blocks must have shape"),
        (lambda blocks: blocks.append(blocks[0]), "blocks must have shape"),
        (lambda blocks: blocks.__setitem__(3, {"rows": 1, "cols": 1, "data": [0.25, 0.0]}),
         "3 x 3"),
    ],
    ids=["missing-tuple", "extra-block", "wrong-shape-block"],
)
def test_parent_payload_must_hold_every_block(edit):
    # one block per outcome tuple, each d x d: a 1 x 1 block must not
    # broadcast over a whole block
    change, message = edit
    mset = meas.random_measurement_set(3, 2, np.random.default_rng(4))
    obj = serialize.parent_to_json(parent.lon_parent(mset, [0.5, 0.5]))
    change(obj["blocks"])
    with pytest.raises(ValueError, match=message):
        serialize.parent_from_json(obj)


def test_parent_payload_with_a_huge_count_refused_at_once():
    # a 2^20 count once took seconds to refuse, building one key per tuple
    obj = {"dim": 2, "outcome_counts": [2] * 64, "blocks": []}
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="blocks must have shape"):
        serialize.parent_from_json(obj)
    assert time.perf_counter() - t0 < 0.01


def _parent_payload():
    mset = meas.random_measurement_set(2, 2, np.random.default_rng(4))
    return serialize.parent_to_json(parent.lon_parent(mset, [0.5, 0.5]))


@pytest.mark.parametrize("kind, edit, message", [
    ("matrix", lambda o: o.update(cols=2.7), "cols must be an integer, got 2.7"),
    ("matrix", lambda o: o.update(rows=2.0), "rows must be an integer, got 2.0"),
    ("povm", lambda o: o.update(dim=2.5), "dim must be an integer, got 2.5"),
    ("set", lambda o: o.update(dim=2.5), "dim must be an integer, got 2.5"),
    ("parent", lambda o: o.update(dim=2.7), "dim must be an integer, got 2.7"),
    ("parent", lambda o: o.update(outcome_counts=[2.9, 2.2]), "must be an integer, got 2.9"),
], ids=["matrix-cols", "matrix-rows", "povm-dim", "set-dim", "parent-dim", "parent-counts"])
def test_non_integer_fields_refused_not_truncated(kind, edit, message):
    # each of these once loaded with the field truncated to an int
    p = meas.displaced_onoff(0.3, 2)
    obj, load = {
        "matrix": (serialize.matrix_to_json(np.eye(2) / 2), serialize.matrix_from_json),
        "povm": (serialize.povm_to_json(p), serialize.povm_from_json),
        "set": (serialize.measurement_set_to_json(meas.MeasurementSet((p,))),
                serialize.measurement_set_from_json),
        "parent": (_parent_payload(), serialize.parent_from_json),
    }[kind]
    load(obj)  # the unedited payload loads
    edit(obj)
    with pytest.raises(ValueError, match=message):
        load(obj)


def _two_outcome_payload(A, B):
    return serialize.povm_to_json(meas.Povm((np.asarray(A), np.asarray(B))))


def test_non_povm_payload_refused():
    # two copies of this pair once loaded, and robustness called them
    # INCOMPATIBLE with eta_hi 0.5
    obj = _two_outcome_payload([[0.5, 2], [0, 0.5]], 0.3 * np.eye(2))
    with pytest.raises(ValueError, match="POVM elements must be Hermitian"):
        serialize.measurement_set_from_json({"dim": 2, "povms": [obj, obj]})


@pytest.mark.parametrize(
    "A, B, message",
    [
        ([[0.5, 0.1], [0, 0.5]], [[0.5, -0.1], [0, 0.5]], "Hermitian"),
        (np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]), "positive semidefinite"),
        (0.3 * np.eye(2), 0.3 * np.eye(2), "sum to the identity"),
        (0.5 * np.eye(2), (0.5 + 2e-8) * np.eye(2), "sum to the identity"),
        ([[np.nan, 0], [0, 0.5]], 0.5 * np.eye(2), "finite"),
    ],
    ids=["non-hermitian", "not-psd", "sum-off", "sum-off-past-tol", "nan"],
)
def test_povm_payload_must_be_a_povm(A, B, message):
    # each payload sums to I and has PSD Hermitian parts where it is not the defect
    with pytest.raises(ValueError, match=message):
        serialize.povm_from_json(_two_outcome_payload(A, B))


def test_povm_within_tol_loads():
    obj = _two_outcome_payload(0.5 * np.eye(2), (0.5 + 5e-9) * np.eye(2))
    assert serialize.povm_from_json(obj).outcomes == 2


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_family_payloads_load(count, d):
    # the output of `lossjm family` over amplitudes and losses
    for r in (0.0, 0.005, 0.3, 1.0, 2.5):
        for tau in (0.1, 0.50005, 1.0):
            mset = meas.symmetric_family(meas.FamilyParams(count, r, tau, d))
            obj = json.loads(json.dumps(serialize.measurement_set_to_json(mset)))
            assert len(serialize.measurement_set_from_json(obj)) == count


def test_random_sets_load():
    rng = np.random.default_rng(18)
    for d in (2, 3, 5):
        mset = meas.random_measurement_set(d, 3, rng)
        assert serialize.measurement_set_from_json(serialize.measurement_set_to_json(mset)).dim == d
