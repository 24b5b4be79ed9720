import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import blocks, field
from ncaudit.blocks import FileManifest, SystemParams
from ncaudit.cluster import spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=1, lambda_bits=80)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n=3, m=4, N=4, M=2, P=3, Q=1).validate()
    with pytest.raises(ValueError):
        SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, q=257).validate()
    # M*N < m rows cannot span the sources, which set-up refuses
    with pytest.raises(ValueError, match="span rank 8 < m = 9"):
        spawn_cluster(SystemParams(n=16, m=9, N=4, M=2, P=3, Q=1), "random_functional",
                      b"", seed=1)
    # a functional repair with Q = 0 wrote all-zero coefficient rows
    with pytest.raises(ValueError, match="Q must be >= 1"):
        SystemParams(n=16, m=4, N=4, M=2, P=3, Q=0).validate()
    with pytest.raises(ValueError, match="P must be >= 0"):
        SystemParams(n=16, m=4, N=4, M=2, P=-1, Q=1).validate()
    SystemParams(n=16, m=4, N=4, M=2, P=0, Q=1).validate()
    PARAMS.validate()


@pytest.mark.parametrize("bits", [56, 60, 520, 1024])
def test_params_refuse_key_sizes_outside_64_to_512_bits(bits):
    # keyed BLAKE2b takes at most 64 key bytes; a longer key was cut to them
    with pytest.raises(ValueError, match="lambda_bits"):
        SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, lambda_bits=bits).validate()
    SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, lambda_bits=512).validate()


def test_source_block_shape(rng):
    rows, lengths = blocks.make_source_blocks(b"x" * 30, PARAMS, rng)
    assert rows.shape == (4, 20) and rows.dtype == np.uint8
    assert lengths == [14, 14, 2, 0]
    # unit coefficient in slot i, data then two padding symbols
    assert np.array_equal(rows[:, 16:], np.eye(4, dtype=np.uint8))


def test_padding_is_random_not_zero(rng):
    rows, _ = blocks.make_source_blocks(b"", PARAMS, rng)
    assert rows[:, 14:16].any()


def test_file_too_long(rng):
    with pytest.raises(ValueError):
        blocks.make_source_blocks(b"y" * (4 * 14 + 1), PARAMS, rng)


def test_combine_is_linear(rng):
    rows, _ = blocks.make_source_blocks(bytes(range(56)), PARAMS, rng)
    alphas = rng.integers(0, 256, 4, dtype=np.uint8)
    combined = field.combine_rows(alphas, rows)
    assert np.array_equal(combined[16:], alphas)
    # a (k, r) coefficient matrix gives one combination per row
    mix = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    many = field.combine_rows(mix, rows)
    assert many.shape == (3, 20)
    for j in range(3):
        assert np.array_equal(many[j], field.combine_rows(mix[j], rows))


def test_decode_roundtrip(rng):
    data = bytes(range(50))
    rows, lengths = blocks.make_source_blocks(data, PARAMS, rng)
    manifest = FileManifest(
        file_id="f", params=PARAMS,
        block_lengths=lengths,
        node_coeffs={0: np.eye(4, dtype=np.uint8)},
        logical_order=[0, 1, 2, 3], deltas=np.zeros((4, 1), dtype=np.uint8))
    # decode from random full-rank combinations, not the sources themselves
    while True:
        mix = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        if field.matrix_rank(mix) == 4:
            break
    assert blocks.decode_file(field.combine_rows(mix, rows), manifest) == data


def test_decode_insufficient_rank(rng):
    rows, _ = blocks.make_source_blocks(b"abc", PARAMS, rng)
    with pytest.raises(blocks.UndecodableError):
        blocks.decode_source_data(rows[:3], 4)


def test_manifest_json_roundtrip(rng):
    manifest = FileManifest(
        file_id="demo", params=PARAMS,
        block_lengths=[14, 14, 14, 3],
        node_coeffs={0: rng.integers(0, 256, (2, 4), dtype=np.uint8),
                     3: rng.integers(0, 256, (2, 4), dtype=np.uint8)},
        logical_order=[0, 1, 2, 3],
        deltas=np.array([[0], [7], [0], [0]], dtype=np.uint8))
    back = FileManifest.from_json(manifest.to_json())
    assert back.file_id == "demo"
    assert back.params == PARAMS
    assert back.block_lengths == manifest.block_lengths
    assert set(back.node_coeffs) == {0, 3}
    assert np.array_equal(back.node_coeffs[3], manifest.node_coeffs[3])
    assert np.array_equal(back.deltas, manifest.deltas)
    # the file holds the nonzero delta rows alone, keyed by source index
    assert json.loads(manifest.to_json())["deltas"] == {"1": [7]}
    # deterministic serialization
    assert back.to_json() == manifest.to_json()


def test_decode_reports_inconsistent_blocks(rng):
    rows, _ = blocks.make_source_blocks(bytes(range(56)), PARAMS, rng)
    bad = rows[0].copy()
    bad[3] ^= 1
    with pytest.raises(blocks.UndecodableError, match="inconsistent"):
        blocks.decode_source_data(np.vstack([rows, bad]), 4)


def _manifest_doc(rng):
    manifest = FileManifest(
        file_id="demo", params=PARAMS,
        block_lengths=[14, 14, 14, 3],
        node_coeffs={0: rng.integers(0, 256, (2, 4), dtype=np.uint8)},
        logical_order=[0, 1, 2, 3],
        deltas=np.array([[0], [7], [0], [0]], dtype=np.uint8))
    return json.loads(manifest.to_json())


@pytest.mark.parametrize("edit", [
    lambda d: d.clear(),                                   # every key missing
    lambda d: d.pop("node_coeffs"),
    lambda d: d.update(file_id=3),
    lambda d: d.update(logical_order="0123"),
    lambda d: d.update(params=[16, 4]),
    lambda d: d["params"].update(n="16"),
    lambda d: d["params"].update(extra=1),
    lambda d: d.update(block_lengths=[14, 14]),
    lambda d: d.update(block_lengths=[14, 14, 14, 15]),
    lambda d: d.update(logical_order=[0, 1, 2, 4]),
    lambda d: d.update(node_coeffs=[[1, 0, 0, 0]]),
    lambda d: d["node_coeffs"].update({"0": [[256, 0, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"0": [[-1, 0, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"0": [[1.5, 0, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"0": [[True, 0, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"0": [[1, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"0": [[1, 0, 0, 0], [1]]}),
    lambda d: d["node_coeffs"].update({"x": [[1, 0, 0, 0]]}),
    # the PRF nonce packs a node id as 32 bits
    lambda d: d["node_coeffs"].update({"-1": [[1, 0, 0, 0]]}),
    lambda d: d["node_coeffs"].update({"4294967296": [[1, 0, 0, 0]]}),
    lambda d: d["deltas"].update({"1": [7, 7]}),
    lambda d: d["deltas"].update({"9": [7]}),
    # one source index twice would be decoded twice (evenodd4 returned
    # block 0 four times); two spellings of one key would silently
    # overwrite each other
    lambda d: d.update(logical_order=[0, 0, 0, 0]),
    lambda d: d.update(logical_order=[0, 1, 2, 1]),
    lambda d: d["node_coeffs"].update({"00": [[1, 0, 0, 0]]}),
    lambda d: d["deltas"].update({"01": [9]}),
])
def test_manifest_rejects_malformed(rng, edit):
    doc = _manifest_doc(rng)
    edit(doc)
    with pytest.raises(ValueError):
        FileManifest.from_json(json.dumps(doc))


def test_manifest_rejects_non_object():
    for text in ("[]", "3", '"manifest"', "{", ""):
        with pytest.raises(ValueError):
            FileManifest.from_json(text)


def test_manifest_ignores_unknown_keys(rng):
    # manifests written by older versions may carry keys no longer read
    doc = _manifest_doc(rng)
    plain = FileManifest.from_json(json.dumps(doc)).to_json()
    doc["obsolete"] = 3
    assert FileManifest.from_json(json.dumps(doc)).to_json() == plain


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-300, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300)
@given(st.sampled_from(["file_id", "params", "block_lengths", "node_coeffs",
                        "logical_order", "deltas"]),
       _json_values)
def test_manifest_parser_raises_only_value_error(key, value):
    doc = _manifest_doc(np.random.default_rng(0))
    doc[key] = value
    try:
        FileManifest.from_json(json.dumps(doc))
    except ValueError:
        pass


# spellings int() reads as one key
_SPELLINGS = st.sampled_from(["{}", "0{}", "00{}", " {}", "{} ", "+{}"])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), _SPELLINGS), max_size=5),
       st.lists(st.tuples(st.integers(0, 3), _SPELLINGS), max_size=5),
       st.lists(st.integers(0, 3), max_size=6))
def test_manifest_parser_refuses_exactly_repeated_entries(nodes, deltas, order):
    doc = _manifest_doc(np.random.default_rng(0))
    doc["node_coeffs"] = {fmt.format(i): [[i, 0, 0, 0]] for i, fmt in nodes}
    doc["deltas"] = {fmt.format(j): [j] for j, fmt in deltas}
    doc["logical_order"] = order
    keyed = {key: [int(k) for k in doc[key]] for key in ("node_coeffs", "deltas")}
    if any(len(set(ids)) < len(ids) for ids in [order, *keyed.values()]):
        with pytest.raises(ValueError):
            FileManifest.from_json(json.dumps(doc))
        return
    back = FileManifest.from_json(json.dumps(doc))
    assert back.logical_order == order
    assert sorted(back.node_coeffs) == sorted(keyed["node_coeffs"])
    assert all(back.node_coeffs[i][0, 0] == i for i in back.node_coeffs)
    assert back.deltas[:, 0].tolist() == [j if j in keyed["deltas"] else 0 for j in range(4)]


@settings(max_examples=100)
@given(st.lists(st.integers(0, 255), min_size=8, max_size=8),
       st.lists(st.integers(0, 255), min_size=1, max_size=1),
       st.permutations(range(4)))
def test_manifest_roundtrip_any(coeffs, delta, order):
    manifest = FileManifest(
        file_id="f", params=PARAMS, block_lengths=[14, 0, 3, 1],
        node_coeffs={2: np.array(coeffs, dtype=np.uint8).reshape(2, 4)},
        logical_order=list(order), deltas=np.array([[0], [0], [0], delta], dtype=np.uint8))
    back = FileManifest.from_json(manifest.to_json())
    assert back.to_json() == manifest.to_json()
    assert back.node_coeffs[2].dtype == np.uint8
