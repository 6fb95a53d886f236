"""Fuzzed headers and truncated bodies: every loader either loads or raises GraspError."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from grasp_vl import datastore as D  # noqa: E402
from grasp_vl import transforms as T  # noqa: E402
from grasp_vl.errors import GraspError  # noqa: E402

FUZZ = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)

_DELETE = object()


def _paths(node, prefix=()):
    """Every (key or index) path to a value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def edited(draw, document):
    """``document`` with one value anywhere in it replaced by arbitrary JSON, or deleted."""
    path = draw(st.sampled_from(list(_paths(document))))
    value = draw(JSON | st.just(_DELETE))
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def headers(document):
    """Arbitrary JSON, or the real header with one value edited."""
    return JSON | edited(document)


def _loads_or_grasp_error(load, path) -> None:
    try:
        load(path)
    except GraspError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    spec = T.TransformSpec("low_rank", 16, rank=2)
    params = T.make_model(spec).init_params(np.random.default_rng(0))
    checkpoint = T.Checkpoint(spec, T.InterfaceContract.default_ladder(16), np.zeros(5), params, {"epoch": 1})
    T.save_checkpoint(base / "good.ckpt", checkpoint)
    T.save_matrix_transform(base / "good.transform", T.random_orthogonal(6, 0))

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, 4)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cache = D.EmbeddingCache(
        dim=4,
        ids=("a", "b", "c"),
        split_of={"a": "train", "b": "val", "c": "test"},
        images=rows,
        views={g: rows for g in T.VIEW_LEVELS},
        negatives={r: rows for r in T.NEGATIVE_TYPES},
    )
    D.write_cache(cache, base / "cache")
    return base


def _split(path):
    header, blob = path.read_bytes().split(b"\n", 1)
    return json.loads(header), blob


def test_the_unedited_files_load(files):
    T.load_checkpoint(files / "good.ckpt")
    T.load_matrix_transform(files / "good.transform")
    D.load_cache(files / "cache" / "manifest.json")


@pytest.mark.parametrize(
    "name,load",
    [("good.ckpt", T.load_checkpoint), ("good.transform", T.load_matrix_transform)],
    ids=["checkpoint", "transform"],
)
class TestBinaryLoaders:
    def test_fuzzed_header(self, files, name, load):
        header, blob = _split(files / name)

        @FUZZ
        @given(headers(header))
        def check(fuzzed):
            path = files / f"fuzzed-{name}"
            path.write_bytes(json.dumps(fuzzed).encode() + b"\n" + blob)
            _loads_or_grasp_error(load, path)

        check()

    def test_truncated_or_extended_body(self, files, name, load):
        data = (files / name).read_bytes()

        @FUZZ
        @given(st.integers(0, len(data) - 1), st.binary(max_size=16))
        def check(cut, junk):
            for body in (data[:cut], data + junk):
                path = files / f"cut-{name}"
                path.write_bytes(body)
                _loads_or_grasp_error(load, path)

        check()


def test_fuzzed_cache_manifest(files):
    manifest_path = files / "cache" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    text = json.dumps(manifest)

    @FUZZ
    @given(headers(manifest).map(json.dumps) | st.integers(0, len(text) - 1).map(lambda cut: text[:cut]))
    def check(content):
        path = files / "cache" / "fuzzed-manifest.json"
        path.write_text(content)
        _loads_or_grasp_error(D.load_cache, path)

    check()


@pytest.fixture(scope="module")
def settings_files(tmp_path_factory):
    """A train_config.json and a synth spec.json as the CLI writes them."""
    from grasp_vl import objective as O
    from grasp_vl import trainer as TR

    base = tmp_path_factory.mktemp("settings")
    contract = T.InterfaceContract.default_ladder(16)
    config = TR.TrainConfig(T.TransformSpec("low_rank", 16, rank=2), contract, O.LossConfig.default(contract))
    (base / "train_config.json").write_text(json.dumps(config.to_json_dict()))
    spec = D.SyntheticSpec(
        dim=16,
        block_sizes={"object": 1, "attribute": 2, "relation": 4, "residual": 9},
        cardinalities={"object": 3, "attribute": 3, "relation": 3},
        noise_std=0.05,
        n_examples=10,
        seed=0,
    )
    (base / "spec.json").write_text(json.dumps(spec.to_json_dict()))
    return base


@pytest.mark.parametrize("name", ["train_config.json", "spec.json"])
def test_fuzzed_settings_load_or_are_config_errors(settings_files, name):
    """Each edit either raises a GraspError the CLI reports as a configuration error (exit 3), or loads settings
    whose transform spec builds a model."""
    from grasp_vl import cli
    from grasp_vl import trainer as TR

    from_json_dict = TR.TrainConfig.from_json_dict if name == "train_config.json" else D.SyntheticSpec.from_json_dict
    text = (settings_files / name).read_text()

    @FUZZ
    @given(headers(json.loads(text)).map(json.dumps) | st.integers(0, len(text) - 1).map(lambda cut: text[:cut]))
    def check(content):
        path = settings_files / f"fuzzed-{name}"
        path.write_text(content)
        try:
            settings = cli._read_settings(path, from_json_dict)
        except GraspError as exc:
            assert exc.code in cli._CONFIG_CODES, exc
            return
        if isinstance(settings, TR.TrainConfig):
            T.make_model(settings.spec)

    check()
