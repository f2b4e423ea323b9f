"""Unit tests for the ArchSpec IR: geometry resolution, MACs, rendering."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.nas.arch_spec import (
    ArchSpec,
    Branches,
    ConvBlock,
    FCBlock,
    MBConvBlock,
    PoolBlock,
    SepConvBlock,
    ShuffleUnit,
    StemBlock,
    scale_spec,
)


def simple_spec():
    return ArchSpec(
        name="t",
        blocks=[
            StemBlock(out_ch=8, kernel=3, stride=2),
            MBConvBlock(expansion=2, kernel=3, out_ch=16, stride=2),
            FCBlock(out_features=10),
        ],
        input_size=16,
        input_channels=3,
    )


class TestGeometryResolution:
    def test_stem_halves_resolution(self):
        layers = simple_spec().layers()
        assert layers[0].out_h == 8

    def test_mbconv_expands_to_three_layers(self):
        layers = simple_spec().layers()
        mb = [l for l in layers if l.block_index == 1]
        assert [l.kind for l in mb] == ["conv", "dwconv", "conv"]
        assert mb[0].out_ch == 8 * 2      # expansion
        assert mb[1].stride == 2
        assert mb[2].out_ch == 16

    def test_channels_chain_through_blocks(self):
        layers = simple_spec().layers()
        for prev, nxt in zip(layers, layers[1:]):
            assert nxt.in_ch == prev.out_ch

    def test_odd_resolution_ceil(self):
        spec = ArchSpec("odd", [StemBlock(out_ch=4, stride=2), FCBlock(out_features=2)],
                        input_size=7, input_channels=1)
        assert spec.layers()[0].out_h == 4  # ceil(7/2)

    def test_sepconv_two_layers(self):
        spec = ArchSpec("s", [SepConvBlock(kernel=3, out_ch=8), FCBlock(out_features=2)],
                        input_size=8, input_channels=4)
        kinds = [l.kind for l in spec.layers()]
        assert kinds == ["dwconv", "conv", "fc"]


class TestResolveOnce:
    """``layers()`` resolves once per geometry and re-resolves on edits."""

    def test_repeat_calls_share_one_resolution(self):
        spec = simple_spec()
        layers = spec.layers()
        assert isinstance(layers, tuple)
        assert spec.layers() is layers

    def test_layers_are_frozen(self):
        layer = simple_spec().layers()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.macs = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.out_ch = 0

    @pytest.mark.parametrize("edit", [
        lambda spec: spec.blocks.insert(1, ConvBlock(out_ch=6)),
        lambda spec: spec.blocks.__setitem__(1, SepConvBlock(kernel=5, out_ch=16)),
        lambda spec: spec.blocks.pop(1),
        lambda spec: setattr(spec, "blocks", [StemBlock(out_ch=4), FCBlock(out_features=3)]),
        lambda spec: setattr(spec, "input_size", 32),
        lambda spec: setattr(spec, "input_channels", 1),
    ], ids=["insert", "setitem", "pop", "replace-list", "input-size", "input-channels"])
    def test_edits_re_resolve(self, edit):
        spec = simple_spec()
        before = spec.layers()
        edit(spec)
        fresh = ArchSpec("fresh", list(spec.blocks), spec.input_size, spec.input_channels)
        assert spec.layers() == fresh.layers()
        assert spec.layers() != before
        assert spec.total_macs() == sum(l.macs for l in fresh.layers())

    def test_pickle_drops_and_rebuilds_resolution(self):
        spec = simple_spec()
        layers = spec.layers()
        clone = pickle.loads(pickle.dumps(spec))
        assert "_resolved" not in clone.__dict__
        assert clone == spec and clone.layers() == layers


class TestMacsAndParams:
    def test_conv_macs_formula(self):
        spec = ArchSpec("c", [ConvBlock(out_ch=8, kernel=3)], input_size=4, input_channels=2)
        layer = spec.layers()[0]
        assert layer.macs == 9 * 4 * 4 * 2 * 8
        assert layer.params == 9 * 2 * 8

    def test_dwconv_macs_formula(self):
        spec = ArchSpec(
            "d", [SepConvBlock(kernel=3, out_ch=4)], input_size=4, input_channels=4
        )
        dw = spec.layers()[0]
        assert dw.macs == 9 * 4 * 4 * 4

    def test_fc_flatten_vs_gap(self):
        gap = ArchSpec("g", [ConvBlock(out_ch=8), FCBlock(out_features=10)],
                       input_size=4, input_channels=3)
        flat = ArchSpec("f", [ConvBlock(out_ch=8), FCBlock(out_features=10, flatten=True)],
                        input_size=4, input_channels=3)
        assert gap.layers()[-1].macs == 8 * 10
        assert flat.layers()[-1].macs == 8 * 4 * 4 * 10

    def test_pool_and_shuffle_zero_macs(self):
        spec = ArchSpec("p", [PoolBlock(), ShuffleUnit(out_ch=8, stride=2)],
                        input_size=8, input_channels=4)
        layers = spec.layers()
        assert layers[0].macs == 0
        assert [l for l in layers if l.kind == "shuffle"][0].macs == 0

    def test_total_macs_sums(self):
        spec = simple_spec()
        assert spec.total_macs() == sum(l.macs for l in spec.layers())


class TestBranches:
    def test_concat_sums_channels(self):
        block = Branches(
            branches=(
                (ConvBlock(out_ch=4, kernel=1),),
                (ConvBlock(out_ch=6, kernel=3),),
            ),
            combine="concat",
        )
        _, ch, h, w = block.expand(3, 8, 8, 0)
        assert ch == 10

    def test_add_keeps_channels(self):
        block = Branches(
            branches=(
                (ConvBlock(out_ch=4, kernel=3),),
                (ConvBlock(out_ch=4, kernel=1),),
            ),
            combine="add",
        )
        _, ch, _, _ = block.expand(3, 8, 8, 0)
        assert ch == 4

    def test_identity_branch(self):
        block = Branches(branches=((ConvBlock(out_ch=4, kernel=3),), ()), combine="add")
        _, ch, _, _ = block.expand(4, 8, 8, 0)
        assert ch == 4

    def test_add_mismatched_channels_raises(self):
        block = Branches(
            branches=((ConvBlock(out_ch=4),), (ConvBlock(out_ch=6),)), combine="add"
        )
        with pytest.raises(ValueError, match="share channel count"):
            block.expand(3, 8, 8, 0)

    def test_resolution_mismatch_raises(self):
        block = Branches(
            branches=((ConvBlock(out_ch=4, stride=2),), (ConvBlock(out_ch=4),)),
            combine="add",
        )
        with pytest.raises(ValueError, match="resolution"):
            block.expand(3, 8, 8, 0)

    def test_bad_combine_raises(self):
        block = Branches(branches=((),), combine="multiply")
        with pytest.raises(ValueError, match="combine"):
            block.expand(3, 8, 8, 0)


class TestScaleSpec:
    def test_width_multiplier_scales_channels(self):
        spec = simple_spec()
        scaled = scale_spec(spec, width_mult=0.5, min_ch=1)
        assert scaled.blocks[0].out_ch == 4
        assert scaled.blocks[1].out_ch == 8

    def test_min_channels_floor(self):
        scaled = scale_spec(simple_spec(), width_mult=0.01, min_ch=4)
        assert scaled.blocks[0].out_ch == 4

    def test_input_size_and_classes_override(self):
        scaled = scale_spec(simple_spec(), input_size=8, num_classes=5)
        assert scaled.input_size == 8
        assert scaled.blocks[-1].out_features == 5

    def test_name_annotated(self):
        assert "w0.5" in scale_spec(simple_spec(), width_mult=0.5).name


class TestRendering:
    def test_describe_contains_blocks(self):
        text = simple_spec().describe()
        assert "MB2 3x3" in text
        assert "GAP+FC" in text

    def test_summary_keys(self):
        summary = simple_spec().summary()
        assert set(summary) == {"name", "blocks", "layers", "macs", "params"}

    def test_has_kind(self):
        spec = ArchSpec("s", [ShuffleUnit(out_ch=8, stride=2), FCBlock(out_features=2)],
                        input_size=8, input_channels=4)
        assert spec.has_kind("shuffle")
        assert not simple_spec().has_kind("shuffle")
