import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellprop import (
    ConfigError,
    InputError,
    ResourceError,
    load_dataset,
    make_split,
    read_edge_list,
    synth_planted_partition,
    write_dataset,
)
from shellprop.data import _parse_features, _parse_labels, _parse_split, load_graph

from helpers import assert_peak_within_checks, fake_physical_memory, parse_features_by_line


def write_toy(directory, features, labels, edges, split=None):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "features.tsv").write_text(
        "\n".join("\t".join(str(v) for v in row) for row in features) + "\n"
    )
    (directory / "labels.tsv").write_text("\n".join(str(l) for l in labels) + "\n")
    (directory / "edges.tsv").write_text(
        "\n".join(f"{u}\t{v}" for u, v in edges) + ("\n" if edges else "")
    )
    if split is not None:
        (directory / "split.json").write_text(json.dumps(split))


class TestLoadDataset:
    def test_three_node_toy(self, tmp_path):
        write_toy(
            tmp_path / "toy",
            [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
            [0, 1, 0],
            [(0, 1), (1, 2)],
        )
        ds = load_dataset(tmp_path / "toy")
        assert ds.n == 3
        assert ds.features.shape == (3, 2)
        assert ds.num_classes == 2
        assert ds.graph.edge_count == 2
        assert ds.split is None

    def test_missing_file(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0]], [0], [])
        (d / "labels.tsv").unlink()
        with pytest.raises(InputError, match="labels.tsv"):
            load_dataset(d)

    def test_ragged_features_names_line(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        (d / "features.tsv").write_text("1.0\t2.0\n1.0\n")
        (d / "labels.tsv").write_text("0\n0\n")
        (d / "edges.tsv").write_text("0\t1\n")
        with pytest.raises(InputError, match="line 2"):
            load_dataset(d)

    def test_non_finite_feature_rejected(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        (d / "features.tsv").write_text("1.0\nnan\n")
        (d / "labels.tsv").write_text("0\n0\n")
        (d / "edges.tsv").write_text("0\t1\n")
        with pytest.raises(InputError, match="line 2"):
            load_dataset(d)

    def test_negative_label_rejected(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0], [2.0]], [0, -1], [(0, 1)])
        with pytest.raises(InputError, match="label out of range"):
            load_dataset(d)

    @pytest.mark.parametrize("label", [2, 999999999999])
    def test_label_at_or_above_node_count_rejected(self, tmp_path, label):
        d = tmp_path / "toy"
        write_toy(d, [[1.0], [2.0]], [0, label], [(0, 1)])
        with pytest.raises(InputError, match="labels.tsv: line 2: label out of range"):
            load_dataset(d)

    def test_label_count_mismatch(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0], [2.0]], [0], [(0, 1)])
        with pytest.raises(InputError, match="labels"):
            load_dataset(d)

    def test_edge_id_beyond_feature_rows(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0], [2.0]], [0, 1], [(0, 5)])
        with pytest.raises(InputError, match="node 5"):
            load_dataset(d)

    def test_overlapping_split_rejected(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(
            d,
            [[1.0], [2.0], [3.0]],
            [0, 1, 0],
            [(0, 1)],
            split={"train": [0], "val": [1], "test": [0, 2]},
        )
        with pytest.raises(InputError, match="overlap"):
            load_dataset(d)

    def test_split_index_out_of_range(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(
            d,
            [[1.0], [2.0]],
            [0, 1],
            [(0, 1)],
            split={"train": [0], "val": [], "test": [7]},
        )
        with pytest.raises(InputError, match="out of range"):
            load_dataset(d)

    def test_round_trip(self, tmp_path):
        ds = synth_planted_partition(6, 3, 0.8, 0.1, seed=5, labels_per_block=2)
        write_dataset(tmp_path / "rt", ds)
        back = load_dataset(tmp_path / "rt")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.graph.row_offsets, ds.graph.row_offsets)
        assert np.array_equal(back.graph.col_indices, ds.graph.col_indices)
        assert np.array_equal(back.split.train, ds.split.train)
        assert np.array_equal(back.split.val, ds.split.val)
        assert np.array_equal(back.split.test, ds.split.test)


class TestMakeSplit:
    def test_protocol_counts(self):
        labels = np.repeat(np.arange(3), 1000)
        split = make_split(labels, per_class=20, val=500, test=1000, seed=7)
        assert len(split.train) == 60
        assert len(split.val) == 500
        assert len(split.test) == 1000
        assert not split.shrunk
        sets = [set(split.train), set(split.val), set(split.test)]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    def test_per_class_histogram(self):
        labels = np.repeat(np.arange(4), 50)
        split = make_split(labels, per_class=5, val=30, test=60, seed=1)
        counts = np.bincount(labels[split.train], minlength=4)
        assert list(counts) == [5, 5, 5, 5]

    def test_same_seed_same_split(self):
        labels = np.repeat(np.arange(3), 40)
        a = make_split(labels, per_class=4, val=20, test=40, seed=9)
        b = make_split(labels, per_class=4, val=20, test=40, seed=9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_small_class_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(InputError, match="class 1"):
            make_split(labels, per_class=2, val=0, test=0)

    def test_proportional_shrink(self):
        labels = np.repeat(np.arange(2), 10)
        split = make_split(labels, per_class=4, val=500, test=1000, seed=0)
        assert split.shrunk
        assert len(split.train) == 8
        assert len(split.val) == 4
        assert len(split.test) == 8


class TestSyntheticPartition:
    def test_labels_are_block_ids(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=3)
        assert list(ds.labels) == [0] * 10 + [1] * 10
        assert ds.num_classes == 2
        assert set(ds.meta) == {"n_components", "connected"}

    def test_zero_cross_probability_gives_block_diagonal(self):
        ds = synth_planted_partition(8, 2, 0.9, 0.0, seed=0)
        for u in range(ds.n):
            for v in ds.graph.neighbors(u):
                assert ds.labels[u] == ds.labels[v]

    def test_fixed_seed_is_reproducible(self):
        a = synth_planted_partition(10, 2, 0.8, 0.05, seed=11)
        b = synth_planted_partition(10, 2, 0.8, 0.05, seed=11)
        assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
        assert np.array_equal(a.features, b.features)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_planted_partition(10, 2, 0.5, 0.5, seed=0)
        with pytest.raises(ConfigError):
            synth_planted_partition(10, 2, 1.5, 0.1, seed=0)
        with pytest.raises(ConfigError):
            synth_planted_partition(0, 2, 0.5, 0.1, seed=0)

    def test_node_pairs_checked_before_they_are_drawn(self, monkeypatch):
        # 2000 nodes: 1999000 pairs at 33 bytes and 16000 bytes of labels,
        # refused in 16000 pages before np.triu_indices; the check bounds the peak
        def no_pairs(*args, **kwargs):
            raise AssertionError("the pairs were built")

        with monkeypatch.context() as patched:
            patched.setattr(np, "triu_indices", no_pairs)
            fake_physical_memory(patched, 16000 * 4096)
            with pytest.raises(ResourceError, match="1999000 pairs, about 65983000 bytes"):
                synth_planted_partition(1000, 2, 0.01, 0.001, seed=1)
        synth_planted_partition(10, 2, 0.8, 0.05, seed=1)
        ds, needs = assert_peak_within_checks(
            ("data", "graph"), lambda: synth_planted_partition(1000, 2, 0.01, 0.001, seed=1)
        )
        assert needs[0] == 65983000 and ds.n == 2000


class TestLoadGraph:
    def test_matches_load_dataset(self, tmp_path):
        ds = synth_planted_partition(6, 3, 0.8, 0.1, seed=5, labels_per_block=2)
        write_dataset(tmp_path / "rt", ds)
        g = load_graph(tmp_path / "rt")
        assert g.n == ds.n
        assert np.array_equal(g.row_offsets, ds.graph.row_offsets)
        assert np.array_equal(g.col_indices, ds.graph.col_indices)

    def test_reads_neither_labels_nor_feature_values(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        (d / "features.tsv").write_text("x\ny\nz\n")
        (d / "edges.tsv").write_text("0\t2\n")
        assert load_graph(d).n == 3

    def test_edge_id_beyond_feature_rows(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0], [2.0]], [0, 1], [(0, 5)])
        with pytest.raises(InputError, match="node 5"):
            load_graph(d)

    def test_missing_features_file(self, tmp_path):
        d = tmp_path / "toy"
        write_toy(d, [[1.0]], [0], [])
        (d / "features.tsv").unlink()
        with pytest.raises(InputError, match="features.tsv"):
            load_graph(d)


def _parse_both(path):
    """(outcome of _parse_features, outcome of the line-by-line oracle): the
    array, or the InputError message."""
    outcomes = []
    for parse in (_parse_features, parse_features_by_line):
        try:
            outcomes.append(parse(path))
        except InputError as err:
            outcomes.append(str(err))
    return outcomes


# ASCII numerals in the forms float() and np.loadtxt both read, and values
# neither does
_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.from_regex(r"[+-]?([0-9]{1,25}\.?[0-9]{0,25}|\.[0-9]{1,25})([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.sampled_from(["inf", "-Infinity", "NaN", "1e999", " 7 ", "", " ", "x", "1.2.3", "--1", "e5"]),
)


@st.composite
def _feature_files(draw):
    width = draw(st.integers(1, 4))
    lengths = st.one_of(st.just(width), st.integers(0, 5))
    rows = draw(st.lists(lengths.flatmap(lambda k: st.lists(_CELLS, min_size=k, max_size=k)),
                         max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join("\t".join(row) for row in rows)
    return text + (newline if draw(st.booleans()) else "")


class TestFeatureParser:
    @pytest.mark.parametrize("text, message", [
        ("1\t2\n3\n", "line 2: expected 2 values, got 1"),
        ("1\t2\n\n3\t4\n", "line 2: expected 2 values, got 1"),
        ("1\n\n3\n", "line 2: non-numeric feature value"),
        ("1\t2\n3\tx\n", "line 2: non-numeric feature value"),
        ("1\t2\n3\tinf\n1\n", "line 2: non-finite feature value"),
        ("1\n1\t2\nnan\n", "line 2: expected 1 values, got 2"),
        ("", "file is empty"),
        ("\n", "line 1: non-numeric feature value"),
    ])
    def test_names_the_first_faulty_line(self, text, message, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text(text)
        with pytest.raises(InputError) as err:
            _parse_features(path)
        assert str(err.value) == f"{path}: {message}"
        assert _parse_both(path) == [str(err.value)] * 2

    @given(text=_feature_files())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_line_by_line_parser(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "features-differential.tsv"
        path.write_bytes(text.encode())
        got, want = _parse_both(path)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


_PARSERS = {
    "edges": read_edge_list,
    "features": _parse_features,
    "labels": lambda path: _parse_labels(path, 1),
    "split": lambda path: _parse_split(path, 3),
}

# fragments the parsers give meaning to, so that generated files reach past
# the first malformed line; bare random bytes rarely do
_TOKENS = st.sampled_from(
    [b"0", b"1", b"2", b"-1", b"7", b"1.5", b"e9", b"nan", b"inf", b"#", b" ",
     b"\t", b"\n", b"\r", b"\xff", b"\xc3", b"\x00", b"9" * 25, b"1" * 5000]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["train", "val", "test", "x"]), inner, max_size=4),
    max_leaves=12,
)
_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(_TOKENS, max_size=30).map(b"".join),
    _JSON.map(lambda v: json.dumps(v).encode()),
)


class TestParsersFuzz:
    @pytest.mark.parametrize("kind", sorted(_PARSERS))
    @given(raw=_FILES)
    @settings(max_examples=150, deadline=None)
    def test_only_input_errors_escape(self, kind, raw, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
        path.write_bytes(raw)
        try:
            _PARSERS[kind](path)
        except InputError:
            pass

    @pytest.mark.parametrize("kind", sorted(_PARSERS))
    def test_non_utf8_byte_names_the_file(self, kind, tmp_path):
        path = tmp_path / f"{kind}.tsv"
        path.write_bytes(b"0\t1\n1\t\xff2\n")
        with pytest.raises(InputError, match=f"{kind}.tsv: not UTF-8 text"):
            _PARSERS[kind](path)
