import hashlib
import json
import re
import shlex
import shutil
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finimg import cli
from finimg.cli import build_parser, main
from finimg.data import DatasetError
from finimg.encoding import ARRANGEMENTS
from finimg.experiment import CheckpointError, SchemaMismatchError
from finimg.nnet import save_arrays
from finimg.schema import FUNDAMENTAL_SECTIONS, SchemaError


# compare runs its fits in process: these tests check what the CLI writes.
pytestmark = pytest.mark.usefixtures("one_cpu")


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth", "--n-per-year", "40", "--years", "2014:2016",
        "--features-per-section", "11", "--noise", "1.0",
        "--factor-strength", "0.9", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    return out


def test_synth_writes_data_and_schema(synth_dir):
    data = (synth_dir / "data.csv").read_text().splitlines()
    schema = (synth_dir / "schema.csv").read_text().splitlines()
    assert data[0].startswith("id,year,quarter,rating,")
    assert len(data) == 1 + 120
    assert schema[0] == "name,section"
    assert len(schema) == 1 + 66


def test_synth_deterministic(tmp_path, synth_dir):
    out2 = tmp_path / "again"
    run_cli(
        "synth", "--n-per-year", "40", "--years", "2014:2016",
        "--features-per-section", "11", "--noise", "1.0",
        "--factor-strength", "0.9", "--seed", "5", "--out", str(out2),
    )
    assert (out2 / "data.csv").read_bytes() == (synth_dir / "data.csv").read_bytes()
    assert (out2 / "schema.csv").read_bytes() == (synth_dir / "schema.csv").read_bytes()


def test_encode_writes_grid_and_pgm(tmp_path, synth_dir):
    out = tmp_path / "enc"
    code = run_cli(
        "encode", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--method", "cca", "--row", "3", "--out", str(out),
    )
    assert code == 0
    cells = (out / "cca_cells.csv").read_text().splitlines()
    prov = (out / "cca_provenance.csv").read_text().splitlines()
    pgm = (out / "cca.pgm").read_text().splitlines()
    assert len(cells) == 8 and len(cells[0].split(",")) == 12
    assert len(prov) == 8
    assert pgm[0] == "P2"


def test_encode_deterministic_for_seeded_method(tmp_path, synth_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_cli(
            "encode", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.csv"),
            "--method", "hvr", "--seed", "9", "--out", str(out),
        )
    assert (out1 / "hvr_cells.csv").read_bytes() == (out2 / "hvr_cells.csv").read_bytes()
    assert (out1 / "hvr_provenance.csv").read_bytes() == (out2 / "hvr_provenance.csv").read_bytes()


ENCODE_SHA256 = "5d0e484946b301049e755e7193c2744fe06e5dee816cf7dbf522a2319a2fee94"


def test_encode_bytes_are_pinned(tmp_path, synth_dir, capsys, monkeypatch):
    # Every method's cells CSV, provenance CSV, PGM and stdout line, hashed;
    # a rewrite of the grid writers must keep each byte.
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    h = hashlib.sha256()
    for method in ("sa", "ra", "cca", "wcr", "bcr", "hva", "hvr"):
        assert run_cli("encode", "--data", str(synth_dir / "data.csv"),
                       "--schema", str(synth_dir / "schema.csv"), "--method", method,
                       "--row", "4", "--seed", "3", "--out", "enc") == 0
        for name in (f"{method}_cells.csv", f"{method}_provenance.csv", f"{method}.pgm"):
            h.update((tmp_path / "enc" / name).read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == ENCODE_SHA256


def test_encode_bad_row_fails_with_stage(tmp_path, synth_dir, capsys):
    code = run_cli(
        "encode", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--method", "sa", "--row", "9999", "--out", str(tmp_path),
    )
    assert code == 2
    assert "[data]" in capsys.readouterr().err


def test_encode_names_a_negative_seed(tmp_path, synth_dir, capsys):
    code = run_cli(
        "encode", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--method", "ra", "--seed", "-1", "--out", str(tmp_path),
    )
    assert code == 2
    assert capsys.readouterr().err == "error [encode] seed must not be negative, got -1\n"


@pytest.mark.parametrize("command", [
    ("encode", "--method", "sa"),
    ("compare", "--epochs", "1", "--runs", "2", "--training-seeds", "2"),
    ("evaluate", "--model", "model.npz"),
], ids=lambda command: command[0])
def test_a_data_csv_without_rows_fails_at_the_data_stage(tmp_path, synth_dir, capsys, command):
    data = tmp_path / "header_only.csv"
    data.write_text((synth_dir / "data.csv").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    code = run_cli(*command, "--data", str(data), "--schema", str(synth_dir / "schema.csv"),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error [data] {data}: no data rows after the header\n"


@pytest.fixture(scope="module")
def small_synth(tmp_path_factory):
    """The data and schema CSV bytes of 12 rows of 12 features."""
    out = tmp_path_factory.mktemp("small")
    assert run_cli("synth", "--n-per-year", "12", "--years", "2016:2016",
                   "--features-per-section", "2", "--seed", "1", "--out", str(out)) == 0
    return (out / "data.csv").read_bytes(), (out / "schema.csv").read_bytes()


# Cell texts that the CSV readers must take or reject by name: numbers out
# of range, quotes, NUL, line breaks, a field over the csv module's limit.
CELLS = st.sampled_from(["", "x", "nan", "inf", "1e400", "9" * 25, "-" + "9" * 25, "9" * 5000,
                         '"', 'a"b', "\x00", "\n", "\r", "7" * 140_000, "AA+", "0", "5",
                         "balance_sheet", "special_items"]) | st.text(max_size=6)
RAW_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b",", b"\n", b"\r"])


@st.composite
def edited(draw, text: bytes) -> bytes:
    """text after one to three edits: a cell replaced, a line dropped or
    repeated, or raw bytes inserted anywhere (headers included)."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["cell", "drop", "repeat", "bytes"]))
        if edit == "cell":
            cells = lines[i].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS).encode()
            lines[i] = b",".join(cells)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        text = b"\n".join(lines)
        if edit == "bytes":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(RAW_BYTES) + text[at:]
    return text


class _RecordedStageError(cli.StageError):
    """A StageError that keeps itself for the test once main has printed it."""

    seen: list = []

    def __init__(self, stage, cause):
        super().__init__(stage, cause)
        self.seen.append(self)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), method=st.sampled_from(ARRANGEMENTS))
def test_encode_takes_edited_csv_inputs_or_names_the_file(tmp_path_factory, small_synth,
                                                           data, method):
    # Every edit either loads, or fails at the data stage with an error of
    # finimg's own that names the file: not a traceback or a numpy,
    # codec or csv message.
    good_data, good_schema = small_synth
    target = data.draw(st.sampled_from(["data", "schema"]))
    texts = {"data": good_data, "schema": good_schema}
    texts[target] = data.draw(edited(texts[target]))
    work = tmp_path_factory.mktemp("edited")
    paths = {name: work / f"{name}.csv" for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text)
    _RecordedStageError.seen.clear()
    with mock.patch.object(cli, "StageError", _RecordedStageError), \
            redirect_stderr(StringIO()) as err:
        code = main(["encode", "--data", str(paths["data"]), "--schema", str(paths["schema"]),
                     "--method", method, "--out", str(work / "out")])
    if code == 0:
        assert not _RecordedStageError.seen and err.getvalue() == ""
        return
    assert code == 2
    (error,) = _RecordedStageError.seen
    cause = error.__cause__
    assert error.stage == "data" and isinstance(cause, (DatasetError, SchemaError)), repr(cause)
    assert str(cause).startswith((str(paths["data"]), str(paths["schema"]))), str(cause)
    assert err.getvalue() == f"error [data] {cause}\n"
    tb = cause.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert "finimg" in Path(tb.tb_frame.f_code.co_filename).parts


def test_train_and_evaluate_roundtrip(tmp_path, synth_dir):
    out = tmp_path / "model"
    code = run_cli(
        "train", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--test-year", "2016", "--method", "sa",
        "--epochs", "1", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert (out / "model.npz").exists()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "method,accuracy,abs_notch,cond_notch,n_test"
    trained_accuracy = float(metrics[1].split(",")[1])

    eval_out = tmp_path / "eval"
    code = run_cli(
        "evaluate", "--model", str(out / "model.npz"),
        "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--test-year", "2016", "--out", str(eval_out),
    )
    assert code == 0
    eval_accuracy = float((eval_out / "metrics.csv").read_text().splitlines()[1].split(",")[1])
    assert eval_accuracy == trained_accuracy


@pytest.mark.parametrize("per_section, width", [(12, 72), (10, 60)], ids=["wider", "narrower"])
def test_evaluate_rejects_a_dataset_of_another_width(tmp_path, synth_dir, capsys,
                                                     per_section, width):
    model = tmp_path / "model"
    assert run_cli("train", "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--method", "cca",
                   "--epochs", "1", "--out", str(model)) == 0
    other = tmp_path / "other"
    assert run_cli("synth", "--n-per-year", "12", "--years", "2016:2016",
                   "--features-per-section", str(per_section), "--out", str(other)) == 0
    capsys.readouterr()
    code = run_cli("evaluate", "--model", str(model / "model.npz"),
                   "--data", str(other / "data.csv"), "--schema", str(other / "schema.csv"))
    assert code == 2
    assert capsys.readouterr().err == (f"error [evaluate] {model / 'model.npz'}: the pipeline "
                                       f"was fitted on 66 features, the dataset has {width}\n")


def test_evaluate_names_the_checkpoint_key_out_of_range(tmp_path, synth_dir, capsys):
    # A keep entry past the schema used to load, and evaluate then failed
    # with "index 500 is out of bounds", naming neither the file nor the key.
    model = tmp_path / "model"
    assert run_cli("train", "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--method", "cca",
                   "--epochs", "1", "--out", str(model)) == 0
    path = model / "model.npz"
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["keep"][0] = 500
    save_arrays(path, arrays)
    capsys.readouterr()
    code = run_cli("evaluate", "--model", str(path), "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error [evaluate] {path}: checkpoint key 'keep' holds 500, outside the 66 features\n")


def test_compare_minimal_protocol(tmp_path, synth_dir):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--test-year", "2016", "--methods", "cca,wcr",
        "--runs", "2", "--epochs", "1", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("method,")
    methods = [line.split(",")[0] for line in report[1:]]
    assert methods == ["cca", "wcr"]


def test_compare_byte_identical_reruns(tmp_path, synth_dir):
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        code = run_cli(
            "compare", "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.csv"),
            "--test-year", "2016", "--methods", "cca,wcr",
            "--runs", "2", "--epochs", "1", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        outs.append(out)
    for name in ("report.csv", "report.md", "runs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_report_does_not_depend_on_the_data_path(tmp_path, synth_dir):
    moved = tmp_path / "elsewhere"
    moved.mkdir()
    shutil.copy(synth_dir / "data.csv", moved / "rows.csv")
    shutil.copy(synth_dir / "schema.csv", moved / "features.csv")
    outs = []
    for data, schema in ((synth_dir / "data.csv", synth_dir / "schema.csv"),
                         (moved / "rows.csv", moved / "features.csv")):
        out = tmp_path / f"out{len(outs)}"
        code = run_cli("compare", "--data", str(data), "--schema", str(schema),
                       "--methods", "cca,wcr", "--runs", "2", "--epochs", "1", "--out", str(out))
        assert code == 0
        outs.append(out)
    for name in ("report.md", "report.csv", "runs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_config_file_with_flag_override(tmp_path, synth_dir):
    config = {
        "data": str(synth_dir / "data.csv"),
        "schema": str(synth_dir / "schema.csv"),
        "test_year": 2016,
        "methods": ["cca", "wcr"],
        "randomization_runs": 2,
        "train": {"epochs": 1, "batch_size": 64, "seed": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    runs = [l for l in (out / "runs.csv").read_text().splitlines() if l.startswith("wcr,")]
    assert len(runs) == 2


@pytest.mark.parametrize("typo, key", [
    ({"train": {"epoch": 1}}, "'train.epoch'"),
    ({"arrangment_seed": 3}, "'arrangment_seed'"),
    ({"synthetic": {"seeds": 1}}, "'synthetic.seeds'"),
])
def test_config_file_unknown_key_fails_at_config_stage(tmp_path, synth_dir, capsys, typo, key):
    config = {
        "data": str(synth_dir / "data.csv"),
        "schema": str(synth_dir / "schema.csv"),
        "methods": ["mlp"],
        "train": {"epochs": 1},
        **typo,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"[config] unknown key {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, message", [
    ({"test_year": "2016"}, "test_year must be int, got '2016'"),
    ({"synthetic": {"n_per_year": "40"}}, "synthetic.n_per_year must be int, got '40'"),
])
def test_config_file_value_of_wrong_type_fails_at_config_stage(tmp_path, synth_dir, capsys,
                                                              bad, message):
    config = {
        "data": str(synth_dir / "data.csv"),
        "schema": str(synth_dir / "schema.csv"),
        "methods": ["mlp"],
        "train": {"epochs": 1},
        **bad,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"[config] {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts, message", [
    ({"balance_sheet": 16}, "no feature count for section 'balance_sheet_supplemental'"),
    ({**{s: 16 for s in FUNDAMENTAL_SECTIONS}, "core_earnings": -4, "bogus": 3},
     "'bogus' is not a section of fundamental data"),
    ({**{s: 16 for s in FUNDAMENTAL_SECTIONS}, "core_earnings": -4},
     "section 'core_earnings' has negative feature count -4"),
], ids=["missing", "unknown", "negative"])
def test_config_file_bad_section_counts_fail_at_config_stage(tmp_path, capsys, counts, message):
    config = {"synthetic": {"n_per_year": 24, "section_counts": counts},
              "methods": ["mlp"], "train": {"epochs": 1}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error [config] {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, message", [
    ("0", "schema has no features"),
    ("-2", "section 'balance_sheet' has negative feature count -2"),
], ids=["zero", "negative"])
def test_synth_features_per_section_is_always_applied(tmp_path, capsys, value, message):
    out = tmp_path / "synth"
    code = run_cli("synth", "--n-per-year", "12", f"--features-per-section={value}",
                   "--out", str(out))
    assert code == 2
    assert f"error [config] {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--training-seeds", "0"), "deterministic methods need training_seeds >= 1"),
    (("--methods", "cca,wcr,cca"), "methods lists 'cca' more than once"),
    (("--seed", "-1"), "seed must not be negative, got -1"),
    (("--arrangement-seed", "-3"), "arrangement_seed must not be negative, got -3"),
    (("--methods", "mlp", "--runs", "-1"), "randomization_runs must not be negative, got -1"),
    (("--methods", "wcr", "--training-seeds", "-1"),
     "training_seeds must not be negative, got -1"),
], ids=["training_seeds", "repeated_method", "seed", "arrangement_seed", "negative_runs",
        "negative_training_seeds"])
def test_compare_rejects_bad_protocol_settings_at_config_stage(tmp_path, synth_dir, capsys,
                                                               flags, message):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--methods", "cca,wcr", "--runs", "2", "--epochs", "1", *flags, "--out", str(out),
    )
    assert code == 2
    assert f"error [config] {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--seed", "-2"), "seed must not be negative, got -2"),
    (("--years", "abc"), "--years must be first:last (or one year), got 'abc'"),
    (("--years", "2014:x"), "--years must be first:last (or one year), got '2014:x'"),
], ids=["seed", "years", "last_year"])
def test_synth_rejects_bad_settings_at_config_stage(tmp_path, capsys, flags, message):
    out = tmp_path / "synth"
    code = run_cli("synth", "--n-per-year", "12", *flags, "--out", str(out))
    assert code == 2
    assert f"error [config] {message}" in capsys.readouterr().err
    assert not out.exists()


def readme_commands() -> list[str]:
    """Every `finimg ...` command in the README's fenced blocks, with
    backslash continuations joined and # comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("finimg "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 6
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command)[1:]  # a renamed flag makes argparse exit here
        assert parser.parse_args(argv).command == argv[0]


def test_config_file_parse_error_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{\n  "methods": ["mlp"],\n', encoding="utf-8")  # truncated
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"[config] {cfg_path}: Expecting property name" in err
    assert "line 3 column 1" in err


def test_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"methods": ["ml\xff"]}')
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (f"error [config] {cfg_path}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 16: invalid start byte\n")


def test_grid_search_command(tmp_path, synth_dir):
    out = tmp_path / "gs"
    code = run_cli(
        "grid-search", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--test-year", "2016", "--model", "sa", "--grid", "4,8",
        "--epochs", "1", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    rows = (out / "grid_search.csv").read_text().splitlines()
    assert rows[0].startswith("neurons1,neurons2,")
    assert len(rows) == 1 + 4


@pytest.mark.parametrize("grid, value", [("0,8", "'0'"), ("-4,8", "'-4'")])
def test_grid_search_rejects_non_positive_grid_values(tmp_path, synth_dir, capsys, grid, value):
    code = run_cli(
        "grid-search", "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.csv"),
        "--test-year", "2016", "--model", "sa", f"--grid={grid}",
        "--epochs", "1", "--seed", "0", "--out", str(tmp_path / "gs"),
    )
    assert code == 2
    assert f"[config] grid value {value} is not a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "gs").exists()


def test_missing_file_fails_cleanly(tmp_path, capsys):
    code = run_cli(
        "evaluate", "--model", str(tmp_path / "none.npz"),
        "--data", str(tmp_path / "none.csv"),
        "--schema", str(tmp_path / "none_schema.csv"),
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text('["mlp"]\n', encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error [config] {cfg_path}: config must be a JSON object\n"


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_a_non_finite_learning_rate_at_config_stage(tmp_path, synth_dir, capsys,
                                                                  lr):
    # It used to train until "[train] non-finite loss or gradient", naming no field.
    out = tmp_path / "model"
    code = run_cli("train", "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--method", "mlp",
                   "--epochs", "1", "--lr", lr, "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error [config] learning_rate must be finite and >= 0, got {lr} (in 'train')\n")
    assert not out.exists()


def test_synth_rejects_a_nan_noise_at_config_stage(tmp_path, capsys):
    # It used to write a data.csv whose feature cells were all empty.
    out = tmp_path / "synth"
    code = run_cli("synth", "--n-per-year", "12", "--noise", "nan", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == "error [config] noise must be finite and >= 0, got nan\n"
    assert not out.exists()


def test_config_file_nan_noise_fails_at_config_stage(tmp_path, capsys):
    # json reads NaN; the protocol used to run on all-NaN features at chance level.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"synthetic": {"n_per_year": 24, "noise": NaN}, "methods": ["mlp"]}',
                        encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error [config] noise must be finite and >= 0, got nan (in 'synthetic')\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def checkpoint_arrays(synth_dir, tmp_path_factory):
    """The arrays of one trained cca checkpoint."""
    out = tmp_path_factory.mktemp("model")
    assert run_cli("train", "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--method", "cca",
                   "--epochs", "1", "--out", str(out)) == 0
    with np.load(out / "model.npz", allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def evaluate_error(path, synth_dir, capsys) -> str:
    """The stderr of an evaluate that fails to load the checkpoint at path."""
    capsys.readouterr()
    _RecordedStageError.seen.clear()
    with mock.patch.object(cli, "StageError", _RecordedStageError):
        code = run_cli("evaluate", "--model", str(path), "--data", str(synth_dir / "data.csv"),
                       "--schema", str(synth_dir / "schema.csv"))
    assert code == 2
    (error,) = _RecordedStageError.seen
    assert isinstance(error.__cause__, CheckpointError), repr(error.__cause__)
    return capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("keep", None, "checkpoint has no key 'keep'"),
    ("meta_json", None, "checkpoint has no key 'meta_json'"),
    ("meta_json", np.array('{"method": "cca",'), "checkpoint key 'meta_json' is not JSON: "
     "Expecting property name enclosed in double quotes: line 1 column 18 (char 17)"),
], ids=["missing_key", "missing_meta", "malformed_meta"])
def test_evaluate_names_the_checkpoint_and_key_it_cannot_read(tmp_path, synth_dir, capsys,
                                                              checkpoint_arrays, key, value,
                                                              message):
    arrays = dict(checkpoint_arrays)
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value
    path = tmp_path / "model.npz"
    save_arrays(path, arrays)
    assert evaluate_error(path, synth_dir, capsys) == f"error [evaluate] {path}: {message}\n"


def _edit_spec(edit):
    """A net_spec_json edit: edit mutates the parsed JSON of the stored spec."""
    def apply(text):
        spec = json.loads(text)
        edit(spec)
        return json.dumps(spec)
    return apply


# The cca spec on an 8x12 grid: conv2d, maxpool, activation, conv2d,
# activation, flatten, then the dense head.
@pytest.mark.parametrize("key, value, message", [
    ("meta_json", "5", "checkpoint meta_json must be a JSON object"),
    ("meta_json", '{"features": ["a"]}', "checkpoint missing key 'meta_json.method'"),
    ("meta_json", '{"features": 7, "method": "cca"}',
     "checkpoint meta_json.features must be tuple[str, ...] | None, got 7"),
    ("meta_json", '{"features": ["a"], "method": "bogus"}',
     "checkpoint unknown method 'bogus' (in 'meta_json')"),
    ("net_spec_json", "{", "checkpoint key 'net_spec_json' is not JSON: "
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("net_spec_json", _edit_spec(lambda spec: spec.pop("loss")),
     "checkpoint key 'net_spec_json' has no entry 'loss'"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][5].update(kind="bogus")),
     "checkpoint key 'net_spec_json': layer 5: unknown kind 'bogus'"),
    ("net_spec_json", _edit_spec(lambda spec: spec.update(loss="hinge")),
     "checkpoint key 'net_spec_json': unknown loss 'hinge'"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][2]["args"].update(kind="tanh")),
     "checkpoint key 'net_spec_json': layer 2: unsupported activation 'tanh'"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"].insert(
        6, {"kind": "dropout", "args": {"rate": 1.5}})),
     "checkpoint key 'net_spec_json': layer 6: dropout rate 1.5 outside [0, 1)"),
    ("net_seed", 0.5, "checkpoint key 'net_seed' must hold one integer, got float64 0.5"),
    ("net_seed", -1, "checkpoint key 'net_seed' holds -1, not a non-negative seed"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][6]["args"].update(units=-5)),
     "checkpoint key 'net_spec_json': layer 6 (dense): units must be a positive integer, "
     "got -5"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][6]["args"].update(units=2.5)),
     "checkpoint key 'net_spec_json': layer 6 (dense): units must be a positive integer, "
     "got 2.5"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][1]["args"].update(window=0)),
     "checkpoint key 'net_spec_json': layer 1 (maxpool): window must be a positive integer, "
     "got 0"),
    ("net_spec_json", _edit_spec(lambda spec: spec["layers"][0]["args"].update(filters="64")),
     "checkpoint key 'net_spec_json': layer 0 (conv2d): filters must be a positive integer, "
     "got '64'"),
], ids=["meta_not_an_object", "meta_without_method", "features_not_a_list", "unknown_method",
        "spec_not_json", "spec_without_loss", "unknown_layer_kind", "unknown_loss",
        "unknown_activation", "dropout_rate_outside_0_1", "seed_not_an_integer",
        "negative_seed", "negative_units", "fractional_units", "zero_window", "text_filters"])
def test_evaluate_names_the_checkpoint_key_it_cannot_use(tmp_path, synth_dir, capsys,
                                                         checkpoint_arrays, key, value, message):
    # Each used to fail with a bare TypeError, KeyError, JSONDecodeError or
    # SpecError naming no file, or (an unknown method, a fractional seed) to
    # load; a negative seed or size failed inside numpy, naming neither.
    arrays = dict(checkpoint_arrays)
    arrays[key] = np.array(value(str(arrays[key])) if callable(value) else value)
    path = tmp_path / "model.npz"
    save_arrays(path, arrays)
    assert evaluate_error(path, synth_dir, capsys) == f"error [evaluate] {path}: {message}\n"


def test_evaluate_rejects_a_test_year_without_observations(tmp_path, synth_dir, checkpoint_arrays,
                                                           capsys):
    path = tmp_path / "model.npz"
    save_arrays(path, checkpoint_arrays)
    code = run_cli("evaluate", "--model", str(path), "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--test-year", "2030")
    assert code == 2
    assert capsys.readouterr().err == "error [evaluate] no observations in year 2030\n"


def test_config_file_data_without_schema_fails_at_the_data_stage(tmp_path, synth_dir, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": str(synth_dir / "data.csv"), "methods": ["mlp"]}),
                        encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == "error [data] a data path needs a schema path\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_names_a_checkpoint_that_is_not_an_npz(tmp_path, synth_dir, capsys):
    path = tmp_path / "model.npz"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    assert evaluate_error(path, synth_dir, capsys).startswith(
        f"error [evaluate] {path}: not an npz checkpoint: ")


def test_evaluate_names_a_plain_npy_file_given_as_a_checkpoint(tmp_path, synth_dir, capsys):
    path = tmp_path / "model.npy"
    np.save(path, np.zeros(3))
    assert evaluate_error(path, synth_dir, capsys) == (
        f"error [evaluate] {path}: not an npz checkpoint: not a zip archive\n")


@pytest.fixture(scope="module")
def checkpoints(synth_dir, tmp_path_factory, checkpoint_arrays):
    """The arrays of a cca and an autoencoder_sa checkpoint, by method."""
    out = tmp_path_factory.mktemp("ae_model")
    assert run_cli("train", "--data", str(synth_dir / "data.csv"),
                   "--schema", str(synth_dir / "schema.csv"), "--method", "autoencoder_sa",
                   "--epochs", "1", "--out", str(out)) == 0
    with np.load(out / "model.npz", allow_pickle=False) as data:
        ae_arrays = {k: data[k] for k in data.files}
    return {"cca": Arrays("cca", checkpoint_arrays),
            "autoencoder_sa": Arrays("autoencoder_sa", ae_arrays)}


class Arrays(dict):
    """A checkpoint's arrays, named in hypothesis reports by their method."""

    def __init__(self, method, arrays):
        super().__init__(arrays)
        self.method = method

    def __repr__(self):
        return f"<{self.method} checkpoint arrays: {sorted(self)}>"


# Values that a JSON edit puts in place of a spec or meta entry.
JSON_VALUES = st.sampled_from([None, True, False, 0, 1, -1, -5, 2, 3, 12, 128, 2.5, 1e308,
                               float("nan"), float("inf"), "", "64", "relu", "valid", "cca",
                               "dense", [], {}, [1], [1, 8, 12], ["a"]])


@st.composite
def edited_json(draw, text: str) -> str:
    """The JSON text with one entry replaced or deleted, at any depth."""
    try:
        raw = json.loads(text)
    except ValueError:  # an earlier edit left no JSON
        return text
    slots, stack = [], [raw]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            stack.append(node[key])
    if not slots:  # a scalar
        return text
    node, key = draw(st.sampled_from(slots))
    if draw(st.booleans()):
        node[key] = draw(JSON_VALUES)
    else:
        del node[key]
    return json.dumps(raw)


@st.composite
def edited_array(draw, a: np.ndarray) -> np.ndarray:
    """a in another dtype or shape, with NaN or a negative entry, or a scalar."""
    edit = draw(st.sampled_from(["dtype", "shape", "nan", "negative", "scalar"]))
    flat = a.reshape(-1)
    if edit == "dtype":
        dtype = draw(st.sampled_from(["int64", "uint8", "bool", "float32", "float64", "<U2"]))
        try:
            return a.astype(dtype)
        except ValueError:  # text that is no number
            return np.zeros(a.shape, dtype)
    if edit == "shape":
        return draw(st.sampled_from([flat[:-1], flat[None], np.concatenate([flat, flat]),
                                     flat.reshape(-1, 1), flat[:0]]))
    if edit == "scalar" or a.dtype.kind not in "iufb" or not a.size:
        return np.array(draw(st.sampled_from([-1, 0, 2.5, "x"])))
    out = a.astype(float if edit == "nan" or a.dtype.kind == "f" else np.int64)
    out.reshape(-1)[draw(st.integers(0, a.size - 1))] = (
        np.nan if edit == "nan" else -draw(st.integers(1, 3)))
    return out


@st.composite
def edited_checkpoint(draw, arrays: dict) -> dict:
    """arrays after one or two edits: a key dropped or renamed (over another
    key too), an array edited, or a JSON value edited."""
    arrays = Arrays(arrays.method, arrays)
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["drop", "rename", "array", "json"]))
        names = [k for k in arrays if k.endswith("_json")] if edit == "json" else []
        key = draw(st.sampled_from(sorted(names or arrays)))
        if edit == "drop":
            del arrays[key]
        elif edit == "rename":
            name = draw(st.sampled_from(sorted(arrays)) | st.just(key + "_"))
            arrays[name] = arrays.pop(key)
        elif edit == "json" and arrays[key].dtype.kind == "U":
            arrays[key] = np.array(draw(edited_json(str(arrays[key]))))
        else:
            arrays[key] = draw(edited_array(arrays[key]))
    return arrays


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN scores on purpose
@settings(max_examples=150, deadline=None)
@given(data=st.data(), method=st.sampled_from(["cca", "autoencoder_sa"]))
def test_evaluate_takes_edited_checkpoints_or_names_the_file(tmp_path_factory, synth_dir,
                                                            checkpoints, data, method):
    # Every edit either scores, or fails at the evaluate stage with an error
    # of finimg's own, raised in finimg, that names the checkpoint: a
    # CheckpointError, or a feature record that disagrees with the dataset's
    # schema. It found negative or fractional sizes, a None in an input
    # shape and a negative seed, which failed inside numpy.
    path = tmp_path_factory.mktemp("edited") / "model.npz"
    save_arrays(path, data.draw(edited_checkpoint(checkpoints[method])))
    _RecordedStageError.seen.clear()
    with mock.patch.object(cli, "StageError", _RecordedStageError), \
            redirect_stderr(StringIO()) as err:
        code = main(["evaluate", "--model", str(path), "--data", str(synth_dir / "data.csv"),
                     "--schema", str(synth_dir / "schema.csv")])
    if code == 0:
        assert not _RecordedStageError.seen and err.getvalue() == ""
        return
    assert code == 2
    (error,) = _RecordedStageError.seen
    cause = error.__cause__
    assert error.stage == "evaluate" and type(cause).__module__.startswith("finimg."), repr(cause)
    assert isinstance(cause, (CheckpointError, SchemaMismatchError)), repr(cause)
    assert str(cause).startswith(str(path)), str(cause)
    tb = cause.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert "finimg" in Path(tb.tb_frame.f_code.co_filename).parts


@pytest.mark.parametrize("train", ["5", "null", "[1]"])
def test_config_file_train_block_that_is_not_an_object_names_the_file(tmp_path, capsys, train):
    # It used to fail with "'int' object is not a mapping", naming neither.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(f'{{"synthetic": {{}}, "methods": ["mlp"], "train": {train}}}',
                        encoding="utf-8")
    code = run_cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error [config] {cfg_path}: train must be a JSON object\n"
