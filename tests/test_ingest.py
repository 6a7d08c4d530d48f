import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beatdiag import ingest
from beatdiag.errors import (
    CorruptActivation,
    MalformedAnnotation,
    MissingFps,
    ParseError,
    ToolkitError,
)
from oracles import parse_activation_text_oracle, parse_beats_oracle


# ---------------------------------------------------------------------------
# load_beats
# ---------------------------------------------------------------------------


def test_load_beats_direct(tmp_path):
    path = tmp_path / "Track_01.beats"
    path.write_text("0.5\n1.0\n1.5\n")
    ann = ingest.load_beats(path)
    assert list(ann.beats) == [0.5, 1.0, 1.5]
    assert ann.track_id == "track_01"


def test_load_beats_ignores_trailing_columns_and_blank_lines(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0.5\t1\n\n1.0 downbeat extra\n1.5\n")
    assert list(ingest.load_beats(path).beats) == [0.5, 1.0, 1.5]


def test_load_beats_non_monotonic(tmp_path):
    path = tmp_path / "x.beats"
    path.write_text("1.0\n0.9\n")
    with pytest.raises(MalformedAnnotation):
        ingest.load_beats(path)


def test_load_beats_duplicate_timestamp_rejected(tmp_path):
    path = tmp_path / "x.beats"
    path.write_text("1.0\n1.0\n")
    with pytest.raises(MalformedAnnotation):
        ingest.load_beats(path)


def test_load_beats_unparseable_line_has_line_number(tmp_path):
    path = tmp_path / "x.beats"
    path.write_text("0.5\nnot-a-number\n")
    with pytest.raises(ParseError, match=r":2:"):
        ingest.load_beats(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_beats_rejects_non_finite_timestamp(tmp_path, value):
    path = tmp_path / "x.beats"
    path.write_text(f"0.5\n{value}\n1.5\n")
    with pytest.raises(ParseError, match=f"{path}:2: timestamp must be finite"):
        ingest.load_beats(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_beat_annotation_rejects_non_finite_timestamp(value):
    with pytest.raises(MalformedAnnotation, match="non-finite"):
        ingest.BeatAnnotation(track_id="x", beats=np.array([0.5, value]))


def test_load_beats_negative(tmp_path):
    path = tmp_path / "x.beats"
    path.write_text("-0.5\n1.0\n")
    with pytest.raises(MalformedAnnotation):
        ingest.load_beats(path)


def test_write_beats_round_trip_ms_precision(tmp_path):
    beats = np.array([0.1234567, 1.9999, 35.5])
    path = tmp_path / "y.beats"
    ingest.write_beats(beats, path)
    back = ingest.load_beats(path).beats
    assert np.allclose(back, beats, atol=5e-4)


@given(
    gaps=st.lists(st.floats(min_value=0.01, max_value=5.0, allow_nan=False), min_size=1, max_size=40)
)
@settings(max_examples=100)
def test_write_beats_round_trip_property(tmp_path_factory, gaps):
    beats = np.cumsum(np.asarray(gaps))
    path = tmp_path_factory.mktemp("rt") / "b.beats"
    ingest.write_beats(beats, path, decimals=6)
    back = ingest.load_beats(path).beats
    assert np.allclose(back, beats, atol=1e-6)


# ---------------------------------------------------------------------------
# tag normalization and axes
# ---------------------------------------------------------------------------


def test_normalize_tag_case():
    assert ingest.normalize_tag("Missing Bass") == "missing_bass"


def test_normalize_tag_parenthesized_duplicate():
    assert ingest.normalize_tag("lack of transients (weak)") == "lack_of_transients"


def test_normalize_tag_plural():
    assert ingest.normalize_tag("slow tempos") == "slow_tempo"
    assert ingest.normalize_tag("ternary meters") == "ternary_meter"


def test_normalize_tag_unknown_is_none():
    assert ingest.normalize_tag("theremin solo") is None


@given(st.text(max_size=40))
@settings(max_examples=200)
def test_normalize_tag_idempotent(raw):
    once = ingest.normalize_tag(raw)
    if once is not None:
        assert ingest.normalize_tag(once) == once


def test_assign_axes_table_rows():
    amap = ingest.default_axis_map()
    assert ingest.assign_axes(["missing_bass"], amap) == {"weak_beat_cues"}
    assert ingest.assign_axes(["expressive_timing", "ternary_meter"], amap) == {
        "tempo_instability",
        "metrical_ambiguity",
    }
    assert ingest.assign_axes([], amap) == frozenset()


def test_axis_map_file_round_trip(tmp_path):
    path = tmp_path / "axes.tsv"
    path.write_text("my_tag\tstructural\nplain_vocab_tag\n")
    amap = ingest.load_axis_map(path)
    assert amap.entries["my_tag"] == "structural"
    assert "plain_vocab_tag" in amap.vocabulary
    assert ingest.normalize_tag("My Tag", amap) == "my_tag"


def test_axis_map_rejects_unknown_axis(tmp_path):
    path = tmp_path / "axes.tsv"
    path.write_text("my_tag\tnot_an_axis\n")
    with pytest.raises(ParseError):
        ingest.load_axis_map(path)


def test_load_tags_with_metadata_and_residue(tmp_path):
    path = tmp_path / "trk.tags"
    path.write_text("Expressive Timing, Missing Bass\nconfidence: 3\nannotator: a7\nodd thing\n")
    meta, residue = ingest.load_tags(path)
    assert meta.canonical_tags == ("expressive_timing", "missing_bass")
    assert meta.axes == {"tempo_instability", "weak_beat_cues"}
    assert meta.annotator_confidence == 3
    assert meta.annotator_id == "a7"
    assert residue == ["odd thing"]


def test_load_tags_bad_confidence_names_path(tmp_path):
    path = tmp_path / "trk.tags"
    path.write_text("Expressive Timing\nconfidence: high\n")
    with pytest.raises(ParseError, match=f"{path}:2"):
        ingest.load_tags(path)


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
)
def test_load_tags_easy_values(tmp_path, value, expected):
    """The booleans parse_bool reads (as no_correct does); in a tag file an
    ``easy:`` line is an unrecognized tag like any other."""
    assert ingest.parse_bool(value) is expected
    path = tmp_path / "trk.tags"
    path.write_text(f"slow tempo\neasy: {value}\n")
    meta, residue = ingest.load_tags(path)
    assert residue == [f"easy: {value}"] and meta.canonical_tags == ("slow_tempo",)


@pytest.mark.parametrize("value", ["maybe", "ture", "2", "y"])
def test_load_tags_bad_easy_value_names_path(tmp_path, caplog, value):
    """parse_bool names a value it rejects; in a tag file the line is no
    error, but an unrecognized tag warned about under its file's name."""
    with pytest.raises(ValueError, match=f"'{value}' is not 1/true/yes/0/false/no"):
        ingest.parse_bool(value)
    path = tmp_path / "trk.tags"
    path.write_text(f"slow tempo\neasy: {value}\n")
    assert ingest.load_tags(path)[1] == [f"easy: {value}"]
    assert f"trk.tags: 1 unrecognized tag(s): ['easy: {value}']" in caplog.text


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_load_activation_text(tmp_path):
    path = tmp_path / "a.act"
    path.write_text("#fps=50\n0.0\n0.9\n0.1\n")
    act = ingest.load_activation(path)
    assert len(act) == 3
    assert act.fps == 50
    assert act.source_label == "a"


def test_load_activation_text_comments_and_clipping(tmp_path):
    path = tmp_path / "a.act"
    path.write_text("#fps=100\n# comment\n0.5\n\n1.0000005\n")
    act = ingest.load_activation(path)
    assert len(act) == 2
    assert act.values.max() == 1.0


def test_load_activation_out_of_range(tmp_path):
    path = tmp_path / "a.act"
    path.write_text("#fps=50\n1.7\n")
    with pytest.raises(CorruptActivation):
        ingest.load_activation(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_activation_text_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "a.act"
    path.write_text(f"#fps=50\n0.1\n{value}\n0.2\n")
    with pytest.raises(CorruptActivation, match=f"{path}:3"):
        ingest.load_activation(path)


@pytest.mark.parametrize("fps", ["inf", "nan"])
def test_non_finite_fps_rejected(tmp_path, fps):
    path = tmp_path / "a.act"
    path.write_text(f"#fps={fps}\n0.5\n")
    with pytest.raises(MissingFps, match=str(path)):
        ingest.load_activation(path)
    with pytest.raises(CorruptActivation):
        ingest.ActivationCurve(values=np.array([0.5]), fps=float(fps))


def test_binary_activation_nan_value_rejected(tmp_path):
    path = tmp_path / "a.bin"
    values = np.array([0.1, np.nan, 0.2], dtype="<f4")
    path.write_bytes(b"ACT1" + struct.pack("<d", 50.0) + struct.pack("<Q", 3) + values.tobytes())
    with pytest.raises(CorruptActivation, match=str(path)):
        ingest.load_activation(path)


def test_load_activation_missing_fps(tmp_path):
    path = tmp_path / "a.act"
    path.write_text("0.5\n0.7\n")
    with pytest.raises(MissingFps):
        ingest.load_activation(path)


def test_binary_activation_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, 2000)
    act = ingest.ActivationCurve(values=values, fps=43.07, source_label="m")
    path = tmp_path / "a.bin"
    ingest.write_activation(act, path, binary=True)
    back = ingest.load_activation(path, source_label="m")
    assert back.fps == 43.07
    assert len(back) == 2000
    assert np.allclose(back.values, values, atol=1e-6)


def test_binary_activation_bad_length(tmp_path):
    path = tmp_path / "a.bin"
    payload = b"ACT1" + struct.pack("<d", 50.0) + struct.pack("<Q", 10) + b"\x00" * 12
    path.write_bytes(payload)
    with pytest.raises(CorruptActivation):
        ingest.load_activation(path)


def test_text_activation_round_trip(tmp_path):
    values = np.linspace(0, 1, 11)
    act = ingest.ActivationCurve(values=values, fps=50.0, source_label="t")
    path = tmp_path / "a.act"
    ingest.write_activation(act, path)
    back = ingest.load_activation(path)
    assert np.allclose(back.values, values, atol=1e-8)


# ---------------------------------------------------------------------------
# tempo estimates
# ---------------------------------------------------------------------------


def test_load_tempo_estimates(tmp_path):
    path = tmp_path / "tempo.csv"
    path.write_text("track_id,bpm,source_label\nTrk_A,72.5,headtempo\n")
    assert ingest.load_tempo_estimates(path) == {"trk_a": 72.5}


def test_load_tempo_estimates_requires_header(tmp_path):
    path = tmp_path / "tempo.csv"
    path.write_text("trk_a,72.5,x\n")
    with pytest.raises(ParseError):
        ingest.load_tempo_estimates(path)


def test_load_tempo_estimates_rejects_nonpositive(tmp_path):
    path = tmp_path / "tempo.csv"
    path.write_text("track_id,bpm,source_label\na,-3,x\n")
    with pytest.raises(ParseError):
        ingest.load_tempo_estimates(path)


@pytest.mark.parametrize("row", ["a,nan,x", "b,inf,x", "c,-inf,x", "a"])
def test_load_tempo_estimates_rejects_non_finite_and_short_rows(tmp_path, row):
    path = tmp_path / "tempo.csv"
    path.write_text(f"track_id,bpm,source_label\nz,90,x\n{row}\n")
    with pytest.raises(ParseError, match=f"{path}:3: "):
        ingest.load_tempo_estimates(path)


def test_load_tempo_estimates_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "tempo.csv"
    path.write_text("track_id,bpm,source_label\n\nz,90,x\n\na,fast,x\n")
    with pytest.raises(ParseError, match=f"{path}:5: "):
        ingest.load_tempo_estimates(path)


@pytest.mark.parametrize("bpm", [float("nan"), float("inf"), 0.0])
def test_tempo_estimate_rejects_non_finite_bpm(tmp_path, bpm):
    path = tmp_path / "tempo.csv"
    path.write_text(f"track_id,bpm,source_label\na,{bpm},x\n")
    with pytest.raises(ParseError, match=f"{path}:2: bpm must be positive and finite"):
        ingest.load_tempo_estimates(path)


def test_load_tempo_estimates_rejects_a_repeated_track(tmp_path):
    # the second row used to win without a word: pseudo01 decoded at 60 BPM
    path = tmp_path / "tempo.csv"
    path.write_text("track_id,bpm,source_label\npseudo01,120,est\n\nPseudo01,60,est\n")
    with pytest.raises(ParseError, match=f"{path}:4: track 'pseudo01' repeated, first on line 2"):
        ingest.load_tempo_estimates(path)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


def _write_corpus(root, n_beats=3, n_tags=2, extra_activation=False):
    (root / "beats").mkdir(parents=True)
    (root / "tags").mkdir()
    (root / "acts").mkdir()
    for i in range(n_beats):
        (root / "beats" / f"t{i}.beats").write_text("0.5\n1.0\n1.5\n2.0\n")
    for i in range(n_tags):
        (root / "tags" / f"t{i}.tags").write_text("slow tempo\n")
    for i in range(n_beats):
        (root / "acts" / f"t{i}.act").write_text("#fps=50\n" + "0.1\n" * 10)
    if extra_activation:
        (root / "acts" / "orphan.act").write_text("#fps=50\n0.5\n0.5\n")


def test_load_dataset_join_semantics(tmp_path):
    _write_corpus(tmp_path)
    layout = ingest.DatasetLayout(beats_dir="beats", tags_dir="tags",
                                  activation_dirs={"model": "acts"})
    ds = ingest.load_dataset(tmp_path, layout)
    assert len(ds) == 3
    assert [r.track_id for r in ds] == ["t0", "t1", "t2"]
    assert ds["t0"].metadata.canonical_tags == ("slow_tempo",)
    assert ds["t2"].metadata.canonical_tags == ()
    assert "model" in ds["t1"].activations


def test_load_dataset_orphan_activation_kept(tmp_path):
    _write_corpus(tmp_path, extra_activation=True)
    layout = ingest.DatasetLayout(beats_dir="beats", tags_dir="tags",
                                  activation_dirs={"model": "acts"})
    ds = ingest.load_dataset(tmp_path, layout)
    assert "orphan" in ds
    assert ds["orphan"].annotation is None
    assert ds["orphan"].activations["model"] is not None
    assert len(ds.annotated()) == 3


def test_load_dataset_empty(tmp_path):
    ds = ingest.load_dataset(tmp_path, ingest.DatasetLayout())
    assert len(ds) == 0


def test_load_dataset_deterministic(tmp_path):
    _write_corpus(tmp_path)
    layout = ingest.DatasetLayout(beats_dir="beats", tags_dir="tags")
    a = ingest.load_dataset(tmp_path, layout)
    b = ingest.load_dataset(tmp_path, layout)
    assert [r.track_id for r in a] == [r.track_id for r in b]


def test_pseudo_corpus_loads(pseudo_root):
    layout = ingest.DatasetLayout(activation_dirs={"pseudo": "activations/pseudo"})
    ds = ingest.load_dataset(pseudo_root, layout)
    assert len(ds) == 3
    assert ds.residue_tags == {"pseudo03": ["mystery descriptor"]}
    assert ds["pseudo02"].metadata.axes == {"tempo_instability", "weak_beat_cues"}
    assert ds["pseudo03"].metadata.annotator_confidence == 4


def test_load_dataset_rejects_two_activation_files_for_one_track(tmp_path):
    (tmp_path / "beats").mkdir()
    (tmp_path / "beats" / "x.beats").write_text("0.5\n1.0\n")
    act_dir = tmp_path / "activations" / "m"
    act_dir.mkdir(parents=True)
    curve = ingest.ActivationCurve(values=np.zeros(100), fps=50.0)
    ingest.write_activation(curve, act_dir / "x.act")
    ingest.write_activation(curve, act_dir / "x.bin", binary=True)
    with pytest.raises(ToolkitError) as err:
        ingest.load_dataset(tmp_path, ingest.root_layout(tmp_path))
    assert str(act_dir / "x.act") in str(err.value) and str(act_dir / "x.bin") in str(err.value)


@pytest.mark.parametrize("kind, first, second", [("beats", "x.beats", "x.txt"), ("tags", "x.tag", "x.tags")])
def test_load_dataset_rejects_two_annotation_or_tag_files_for_one_track(tmp_path, kind, first, second):
    (tmp_path / "beats").mkdir()
    (tmp_path / "tags").mkdir()
    (tmp_path / "beats" / "x.beats").write_text("0.5\n1.0\n1.5\n")
    (tmp_path / kind / first).write_text("slow tempo\n" if kind == "tags" else "0.5\n1.0\n1.5\n")
    (tmp_path / kind / second).write_text("rubato\n" if kind == "tags" else "0.5\n")
    with pytest.raises(ToolkitError) as err:
        ingest.load_dataset(tmp_path)
    assert str(tmp_path / kind / first) in str(err.value) and str(tmp_path / kind / second) in str(err.value)


def test_load_dataset_never_reads_manifest_as_a_track(tmp_path):
    (tmp_path / "beats").mkdir()
    (tmp_path / "beats" / "x.beats").write_text("0.5\n1.0\n1.5\n")
    (tmp_path / "beats" / "manifest.txt").write_text("toolkit_version=0.1.0\ncommand=decode:peaks\n")
    ds = ingest.load_dataset(tmp_path)
    assert [r.track_id for r in ds] == ["x"]
    assert list(ingest.load_annotations(tmp_path / "beats")) == ["x"]


# ---------------------------------------------------------------------------
# any input gives a valid object or a ToolkitError
# ---------------------------------------------------------------------------


def _act1(fps, count, payload):
    return b"ACT1" + struct.pack("<d", fps) + struct.pack("<Q", count) + payload


def _mutate(blob, edits):
    blob = bytearray(blob)
    for pos, byte in edits:
        if blob:
            blob[pos % len(blob)] = byte
    return bytes(blob)


finite_or_not = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -1.0, 50.0, 1e308])
)
act1_blobs = st.one_of(
    st.builds(
        _act1,
        finite_or_not,
        st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1)),
        st.binary(max_size=160),
    ),
    st.builds(
        _mutate,
        st.lists(st.floats(0.0, 1.0, width=32), min_size=1, max_size=20).map(
            lambda xs: _act1(50.0, len(xs), np.asarray(xs, dtype="<f4").tobytes())
        ),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
    ),
)
value_lines = st.lists(
    st.one_of(
        st.sampled_from(["0.5", "1", "0", "-0", "nan", "inf", "1e309", "1.0000001", "", "# c", " 0.3 ", "x"]),
        st.text(max_size=8),
    ),
    max_size=12,
)
fps_lines = st.one_of(
    st.sampled_from([
        "#fps=50", "#fps=", "#fps=0", "#fps=-5", "#fps=nan", "#fps=1e400", "#fps= 43.07 ", "#fps=1_0",
        "# fps=50", "#FPS=50", "#fps=50=50",
    ]),
    st.text(max_size=12).map(lambda t: "#fps=" + t),
)
text_activations = st.builds(
    lambda head, lines: "\n".join([head] + lines).encode("utf-8"), fps_lines, value_lines
)


def _load_or_none(load, path):
    try:
        return load(path)
    except ToolkitError:
        return None


@given(blob=st.one_of(st.binary(max_size=200), act1_blobs, text_activations))
@example(blob=_act1(50.0, 2, struct.pack("<2I", 0, 0x7FA00000)))  # a signalling NaN
@settings(max_examples=400)
def test_load_activation_any_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "any_x.act"
    path.write_bytes(blob)
    act = _load_or_none(ingest.load_activation, path)
    if act is not None:
        assert isinstance(act, ingest.ActivationCurve)
        assert 0 < act.fps < np.inf
        assert act.values.size >= 1 and act.values.min() >= 0.0 and act.values.max() <= 1.0


number_lines = st.one_of(st.floats(0.0, 1.0).map(repr), st.floats(0.0, 1.0).map("{:.6f}".format))
odd_lines = st.one_of(
    st.sampled_from([
        " 0.3 ", "\t0.5", "\u00a00.5", "1", "-0", "1e-400", "1.0000005", "1_0", "0_5", "\u0661", "1.7", "-0.2",
        "nan", "-inf", "1e309", "", "  ", "# c", "#0.5", "x", "0x1", "0,5", "\x00",
    ]),
    st.text(max_size=8),
)
text_bodies = st.tuples(
    st.sampled_from(["#fps=50", "#fps=43.07", "#fps=", "fps=50"]),
    st.one_of(st.lists(number_lines, max_size=30), st.lists(st.one_of(number_lines, odd_lines), max_size=12)),
    st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"]),
).map(lambda hls: hls[2].join([hls[0], *hls[1]]).encode("utf-8"))


def _parse_outcome(parse, blob):
    try:
        act = parse(blob, "a.act", "a")
    except ToolkitError as exc:
        return type(exc), str(exc)
    return act.fps, act.source_label, act.values.dtype, act.values.tobytes()


@given(blob=text_bodies)
@settings(max_examples=500)
def test_text_activation_parser_matches_line_loop(blob):
    assert _parse_outcome(ingest._parse_activation_text, blob) == _parse_outcome(parse_activation_text_oracle, blob)


increasing_beats = st.lists(st.floats(0.001, 5.0), max_size=30).map(lambda gaps: np.cumsum(gaps).tolist())
beat_bodies = st.tuples(
    st.one_of(
        increasing_beats.map(lambda ts: [repr(t) for t in ts]),
        increasing_beats.map(lambda ts: [f"{t:.3f}" for t in ts]),
        st.lists(st.one_of(number_lines, odd_lines, st.just("1.0 2")), max_size=12),
    ),
    st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"]),
    st.booleans(),
).map(lambda b: b[1].join(b[0]) + (b[1] if b[2] else ""))


def _beats_outcome(load):
    try:
        ann = load()
    except ToolkitError as exc:
        return type(exc), str(exc)
    return ann.track_id, ann.beats.dtype, ann.beats.tobytes()


@given(text=beat_bodies)
@settings(max_examples=500)
def test_load_beats_matches_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "loop_x.beats"
    path.write_bytes(text.encode("utf-8"))
    assert _beats_outcome(lambda: ingest.load_beats(path)) == _beats_outcome(lambda: parse_beats_oracle(text, path))


beat_texts = st.one_of(
    st.text(max_size=120),
    st.lists(
        st.one_of(
            st.sampled_from(["0.5", "1.0 x", "nan", "-1", "inf", "", "2.0", "1e-400", "\u0661"]),
            st.text(max_size=6),
        ),
        max_size=10,
    ).map("\n".join),
)


@given(text=beat_texts)
@settings(max_examples=300)
def test_load_beats_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "any_x.beats"
    path.write_text(text, encoding="utf-8")
    ann = _load_or_none(ingest.load_beats, path)
    if ann is not None:
        assert isinstance(ann, ingest.BeatAnnotation)
        assert np.all(np.isfinite(ann.beats)) and np.all(np.diff(ann.beats) > 0)


tempo_rows = st.lists(
    st.one_of(
        st.sampled_from(["a,90,x", "a,nan,x", "b,inf,x", "a", "a,", ",,", "a,-1,x", "a,1e999,x", 'a,"9\n0",x',
                         "a,90,x,extra", ""]),
        st.text(max_size=12),
    ),
    max_size=8,
)
tempo_texts = st.one_of(
    st.text(max_size=120),
    st.builds(
        lambda head, rows: "\n".join([head] + rows),
        st.sampled_from(["track_id,bpm,source_label", "bpm,source_label,track_id", "track_id,bpm"]),
        tempo_rows,
    ),
)


@given(text=tempo_texts)
@settings(max_examples=300)
def test_load_tempo_estimates_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "any_x.csv"
    path.write_text(text, encoding="utf-8")
    estimates = _load_or_none(ingest.load_tempo_estimates, path)
    for track_id, bpm in (estimates or {}).items():
        assert isinstance(track_id, str) and isinstance(bpm, float)
        assert 0 < bpm < np.inf


def _as_bytes(texts):
    """Arbitrary bytes, and ``texts`` encoded as UTF-8 or as UTF-16 (with its BOM)."""
    return st.one_of(
        st.binary(max_size=160),
        texts.map(lambda t: t.encode("utf-8")),
        texts.map(lambda t: t.encode("utf-16")),
    )


@pytest.mark.parametrize("load, texts", [
    (ingest.load_beats, beat_texts),
    (ingest.load_tags, st.text(max_size=120)),
    (ingest.load_tempo_estimates, tempo_texts),
    (ingest.load_axis_map, st.text(max_size=120)),
], ids=["beats", "tags", "tempo", "axis-map"])
@given(data=st.data())
@settings(max_examples=150)
def test_text_loaders_any_bytes(tmp_path_factory, load, texts, data):
    blob = data.draw(_as_bytes(texts))
    path = tmp_path_factory.getbasetemp() / "any_bytes.txt"
    path.write_bytes(blob)
    try:
        load(path)
    except ToolkitError as exc:
        assert str(path) in str(exc)
    else:
        blob.decode("utf-8")  # only UTF-8 text loads


def test_non_utf8_beats_file_names_path(tmp_path):
    path = tmp_path / "trk.beats"
    path.write_bytes(b"\xff\xfe1.0\n")
    with pytest.raises(ParseError, match=f"{path}: not UTF-8 text"):
        ingest.load_beats(path)
