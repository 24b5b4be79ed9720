import numpy as np
import pytest

from ncaudit import blocks
from ncaudit.blocks import CodedBlock, FileManifest, SystemParams

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=1, lambda_bits=80)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n=3, m=4, N=4, M=2, P=3, Q=1).validate()
    with pytest.raises(ValueError):
        SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, q=257).validate()
    with pytest.raises(ValueError):
        SystemParams(n=16, m=9, N=4, M=2, P=3, Q=1).validate()  # M*N < m
    PARAMS.validate()


def test_source_block_shape(rng):
    blks, residual, lengths = blocks.make_source_blocks(b"x" * 30, PARAMS, rng)
    assert len(blks) == 4
    assert lengths == [14, 14, 2, 0]
    assert residual == 2
    for i, b in enumerate(blks):
        # unit coefficient in slot i, data then two padding symbols
        expect = np.zeros(4, dtype=np.uint8)
        expect[i] = 1
        assert np.array_equal(b.coeffs, expect)
        assert b.vec.shape == (20,)


def test_padding_is_random_not_zero(rng):
    blks, _, _ = blocks.make_source_blocks(b"", PARAMS, rng)
    pads = np.concatenate([b.data[-2:] for b in blks])
    assert pads.any()


def test_file_too_long(rng):
    with pytest.raises(ValueError):
        blocks.make_source_blocks(b"y" * (4 * 14 + 1), PARAMS, rng)


def test_block_file_roundtrip(rng):
    b = CodedBlock(rng.integers(0, 256, 20, dtype=np.uint8), 16, 4)
    raw = b.to_bytes()
    assert raw[:4] == b"NCAB" and raw[4] == 1
    assert int.from_bytes(raw[5:9], "big") == 16
    assert int.from_bytes(raw[9:13], "big") == 4
    back = CodedBlock.from_bytes(raw)
    assert np.array_equal(back.vec, b.vec)
    assert (back.n, back.m) == (16, 4)


def test_block_file_rejects_bad_magic(rng):
    raw = CodedBlock(rng.integers(0, 256, 20, dtype=np.uint8), 16, 4).to_bytes()
    with pytest.raises(ValueError):
        CodedBlock.from_bytes(b"XXXX" + raw[4:])


def test_combine_is_linear(rng):
    blks, _, _ = blocks.make_source_blocks(bytes(range(56)), PARAMS, rng)
    alphas = rng.integers(0, 256, 4, dtype=np.uint8)
    combined = blocks.combine_blocks(blks, alphas)
    assert np.array_equal(combined.coeffs, alphas)


def test_decode_roundtrip(rng):
    data = bytes(range(50))
    blks, residual, lengths = blocks.make_source_blocks(data, PARAMS, rng)
    manifest = FileManifest(
        file_id="f", params=PARAMS, residual_len=residual,
        block_lengths=lengths,
        node_coeffs={0: np.eye(4, dtype=np.uint8)},
        logical_order=[0, 1, 2, 3])
    # decode from random full-rank combinations, not the sources themselves
    while True:
        mix = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        from ncaudit import field
        if field.matrix_rank(mix) == 4:
            break
    coded = [blocks.combine_blocks(blks, mix[i]) for i in range(4)]
    assert blocks.decode_file(coded, manifest) == data


def test_decode_insufficient_rank(rng):
    blks, _, _ = blocks.make_source_blocks(b"abc", PARAMS, rng)
    with pytest.raises(blocks.UndecodableError):
        blocks.decode_source_data(blks[:3], 4)


def test_manifest_json_roundtrip(rng):
    manifest = FileManifest(
        file_id="demo", params=PARAMS, residual_len=3,
        block_lengths=[14, 14, 14, 3],
        node_coeffs={0: rng.integers(0, 256, (2, 4), dtype=np.uint8),
                     3: rng.integers(0, 256, (2, 4), dtype=np.uint8)},
        logical_order=[0, 1, 2, 3],
        deltas={1: np.array([7], dtype=np.uint8)})
    back = FileManifest.from_json(manifest.to_json())
    assert back.file_id == "demo"
    assert back.params == PARAMS
    assert back.block_lengths == manifest.block_lengths
    assert set(back.node_coeffs) == {0, 3}
    assert np.array_equal(back.node_coeffs[3], manifest.node_coeffs[3])
    assert np.array_equal(back.deltas[1], manifest.deltas[1])
    # deterministic serialization
    assert back.to_json() == manifest.to_json()


def test_decode_reports_inconsistent_blocks(rng):
    blks, _, _ = blocks.make_source_blocks(bytes(range(56)), PARAMS, rng)
    bad = blks[0].copy()
    bad.vec[3] ^= 1
    with pytest.raises(blocks.UndecodableError, match="inconsistent"):
        blocks.decode_source_data(blks + [bad], 4)
