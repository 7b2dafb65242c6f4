"""End-to-end tests for the command-line surface."""

import csv
import hashlib
import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

import devicesurv
from devicesurv import cli, synth
from devicesurv.cli import main
from devicesurv.defaults import DICTIONARY_FILES, resource_path


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def small_corpus_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    corpus = synth.gen_corpus(synth.SynthConfig(seed=0, n_patients=25))
    paths = synth.write_corpus(corpus, outdir)
    return outdir, paths, corpus


def _write_config(tmp_path, output_dir, paths=None, params=None, extra=None):
    cfg = {"output_dir": str(output_dir)}
    if paths:
        cfg["paths"] = {k: [str(x) for x in v] if isinstance(v, list) else str(v)
                        for k, v in paths.items()}
    if params:
        cfg["params"] = params
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _stderr_json(result):
    return json.loads(result.stderr.strip().splitlines()[-1])


def _command_tree(group, prefix=()):
    out = set()
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            out |= _command_tree(cmd, prefix + (name,))
        else:
            out.add(prefix + (name,))
    return out


class TestConfigValidation:
    def test_unknown_top_level_key(self, runner, tmp_path):
        cfg = _write_config(tmp_path, tmp_path / "out", extra={"mystery": 1})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 2
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert "mystery" in err["message"]

    def test_unknown_paths_key(self, runner, tmp_path):
        cfg = _write_config(tmp_path, tmp_path / "out", paths={"bogus": tmp_path})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 2

    def test_unknown_params_key(self, runner, tmp_path):
        cfg = _write_config(tmp_path, tmp_path / "out", params={"bogus": 1})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 2

    # Each param is read by the command given; a float epoch count is refused,
    # not truncated.
    @pytest.mark.parametrize("key,value,command", [
        ("seed", "abc", ["synth", "gen"]),
        ("class_prior", "x", ["labelmodel", "fit"]),
        ("epochs", 1.5, ["train"]),
    ])
    def test_param_of_wrong_type(self, runner, tmp_path, key, value, command):
        cfg = _write_config(tmp_path, tmp_path / "out", params={key: value})
        result = runner.invoke(main, command + ["--config", cfg])
        assert result.exit_code == 2, result.output
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert f"params.{key}" in err["message"]

    # Each value would end training in a traceback or run it on a meaningless
    # setting; the config is refused before any artifact is read.
    @pytest.mark.parametrize("key,value", [
        ("batch_size", 0), ("epochs", 0), ("epochs", -3), ("learning_rate", 0),
        ("learning_rate", -0.5), ("l2", -1e-4), ("threshold", -0.1), ("threshold", 1.5),
        ("seed", -1), ("merge_window_days", -1), ("date_tolerance_days", -30),
    ])
    def test_param_out_of_range(self, runner, tmp_path, key, value):
        cfg = _write_config(tmp_path, tmp_path / "out", params={key: value})
        result = runner.invoke(main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert f"params.{key}" in err["message"]

    def test_param_range_includes_its_bounds(self, tmp_path):
        for params in ({"epochs": 1, "batch_size": 1, "l2": 0, "threshold": 0, "seed": 0,
                        "merge_window_days": 0, "date_tolerance_days": 0},
                       {"learning_rate": 1e-9, "threshold": 1}):
            cli.load_config(_write_config(tmp_path, tmp_path / "out", params=params))

    def test_integer_accepted_for_float_param(self, tmp_path):
        cfg = cli.load_config(
            _write_config(tmp_path, tmp_path / "out", params={"class_prior": 1, "seed": 3}))
        assert cfg.param("class_prior") == 1.0 and isinstance(cfg.param("class_prior"), float)
        assert cfg.param("seed") == 3

    def test_missing_output_dir_key(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"paths": {}}))
        result = runner.invoke(main, ["candidates", "--config", str(path)])
        assert result.exit_code == 2

    def test_invalid_json(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["candidates", "--config", str(path)])
        assert result.exit_code == 3
        assert _stderr_json(result)["code"] == "input_format"

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["candidates", "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 4
        assert _stderr_json(result)["code"] == "missing_artifact"

    def test_nonexistent_configured_path(self, runner, tmp_path):
        cfg = _write_config(
            tmp_path, tmp_path / "out", paths={"notes": tmp_path / "missing.jsonl"}
        )
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 4
        err = _stderr_json(result)
        assert err["context"]["key"] == "notes"

    def test_env_override_for_paths(self, runner, tmp_path, small_corpus_dir, monkeypatch):
        _, paths, corpus = small_corpus_dir
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("")
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": bogus})
        monkeypatch.setenv("DEVICESURV_NOTES", paths["notes"])
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 0
        with (outdir / "candidates.jsonl").open() as fh:
            records = [json.loads(line) for line in fh]
        assert [r["candidate_id"] for r in records] == list(corpus.gold_relations)

    @pytest.mark.parametrize("names", [["anatomy"], ["pain", "anatomy"]])
    def test_env_override_for_list_paths(self, runner, tmp_path, small_corpus_dir,
                                         monkeypatch, names):
        # DEVICESURV_DICTIONARIES joins several files with os.pathsep and
        # acts like the same list under paths.dictionaries.
        _, paths, _ = small_corpus_dir
        files = [resource_path(DICTIONARY_FILES[name]) for name in names]
        listed = _write_config(tmp_path, tmp_path / "listed",
                               paths={"notes": paths["notes"], "dictionaries": files})
        assert runner.invoke(main, ["candidates", "--config", listed]).exit_code == 0
        cfg = _write_config(tmp_path, tmp_path / "env", paths={"notes": paths["notes"]})
        monkeypatch.setenv("DEVICESURV_DICTIONARIES", os.pathsep.join(map(str, files)))
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert ((tmp_path / "env" / "candidates.jsonl").read_bytes()
                == (tmp_path / "listed" / "candidates.jsonl").read_bytes())

    def test_every_known_key_is_read(self):
        # A key that loses its last reader in cli.py must leave the known set.
        with open(cli.__file__, encoding="utf-8") as fh:
            src = fh.read()
        assert set(re.findall(r'cfg\.param\("(\w+)"', src)) == set(cli._KNOWN_PARAM_KEYS)
        assert set(re.findall(r'cfg\.(?:path|paths\.get)\("(\w+)"', src)) == cli._KNOWN_PATH_KEYS


class TestLocking:
    def test_lock_blocks_second_run(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        outdir.mkdir()
        owner = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            (outdir / ".lock").write_text(str(owner.pid))
            cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
            result = runner.invoke(main, ["candidates", "--config", cfg])
        finally:
            owner.kill()
            owner.wait()
        assert result.exit_code == 2
        assert "locked" in _stderr_json(result)["message"]
        assert (outdir / ".lock").read_text() == str(owner.pid)

    def test_lock_of_exited_run_taken_over(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        outdir.mkdir()
        owner = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        (outdir / ".lock").write_text(owner.stdout.strip())
        cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert not (outdir / ".lock").exists()

    def test_lock_released_after_success(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
        assert runner.invoke(main, ["candidates", "--config", cfg]).exit_code == 0
        assert not (outdir / ".lock").exists()
        assert runner.invoke(main, ["candidates", "--config", cfg]).exit_code == 0


class TestArtifacts:
    def test_candidates_writes_meta(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 0
        meta = json.loads((outdir / "candidates.meta.json").read_text())
        assert meta["command"] == "candidates"
        assert len(meta["config_hash"]) == 12
        assert (outdir / "candidates.jsonl").exists()

    def test_missing_artifact_exit_code(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        cfg = _write_config(tmp_path, tmp_path / "out", paths={"notes": paths["notes"]})
        result = runner.invoke(main, ["train", "--config", cfg])
        assert result.exit_code == 4
        assert "labelmodel fit" in _stderr_json(result)["message"]

    def test_train_without_label_matrix_exit_code(self, runner, tmp_path, small_corpus_dir):
        # Without the matrix, train cannot tell covered rows from uncovered
        # ones, so it stops instead of training on every candidate.
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [
            ["candidates"], ["lf", "apply"], ["labelmodel", "fit"]])
        (outdir / "label_matrix.bin").unlink()
        result = runner.invoke(main, ["train", "--config", cfg])
        assert result.exit_code == 4
        err = _stderr_json(result)
        assert err["code"] == "missing_artifact"
        assert "label matrix not found" in err["message"]
        assert "run 'lf apply' first" in err["message"]
        assert not (outdir / "classifier.bin").exists()

    def test_class_prior_out_of_range_exit_code(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [["candidates"], ["lf", "apply"]])
        _write_config(tmp_path, outdir, paths={"notes": paths["notes"]},
                      params={"lf_set": "benchmark", "class_prior": 1.5})
        result = runner.invoke(main, ["labelmodel", "fit", "--config", cfg])
        assert result.exit_code == 2
        assert "class prior" in _stderr_json(result)["message"]

    @pytest.mark.parametrize("source", [
        "def get_lfs(relation_type:\n",  # a syntax error
        "raise RuntimeError('boom')\n",  # fails on import
        "X = 1\n",  # no get_lfs
        "def get_lfs(relation_type):\n    raise KeyError(relation_type)\n",
        "def get_lfs(relation_type):\n    return lambda c: 1\n",  # not a list
        "def get_lfs(relation_type):\n    return [lambda c: 1]\n",  # not an LF
    ], ids=["syntax", "import_raises", "no_get_lfs", "get_lfs_raises", "bare_function",
            "list_of_functions"])
    def test_broken_lf_module_exit_code(self, runner, tmp_path, small_corpus_dir, source):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [["candidates"]])
        module = tmp_path / "my_lfs.py"
        module.write_text(source)
        _write_config(tmp_path, outdir, paths={"notes": paths["notes"], "lf_module": module})
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 2, result.output
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert str(module) in err["message"]
        assert not (outdir / "label_matrix.bin").exists()

    def test_lf_module_supplies_the_lfs(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [["candidates"]])
        module = tmp_path / "my_lfs.py"
        module.write_text("from devicesurv.lf_lib import starter_lfs\n\n"
                          "def get_lfs(relation_type):\n"
                          "    return starter_lfs(relation_type)[:2]\n")
        _write_config(tmp_path, outdir, paths={"notes": paths["notes"], "lf_module": module})
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 0, result.output
        from devicesurv.weaksup import LabelMatrix

        matrix = LabelMatrix.load(outdir / "label_matrix.bin")
        assert matrix.lf_ids == ["lf_contiguous_entities", "lf_historical"]

    def test_label_matrix_csv_quotes_lf_ids(self, runner, tmp_path, small_corpus_dir):
        # A user LF id holding a comma and a quote reads back as one field.
        _, paths, corpus = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [["candidates"]])
        module = tmp_path / "my_lfs.py"
        module.write_text("from devicesurv.weaksup import LabelingFunction\n\n"
                          "def get_lfs(relation_type):\n"
                          "    return [LabelingFunction('kw,\"x\"', relation_type, lambda c: 1)]\n")
        _write_config(tmp_path, outdir, paths={"notes": paths["notes"], "lf_module": module})
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 0, result.output
        with open(outdir / "label_matrix.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [list(r.items()) for r in rows] == [
            [("candidate_id", cid), ("lf_id", 'kw,"x"'), ("vote", "TRUE")]
            for cid in corpus.gold_relations]

    def test_tag_and_candidates(self, runner, tmp_path, small_corpus_dir):
        _, paths, corpus = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
        result = runner.invoke(main, ["candidates", "--config", cfg])
        assert result.exit_code == 0
        with (outdir / "candidates.jsonl").open() as fh:
            records = [json.loads(line) for line in fh]
        assert [r["candidate_id"] for r in records] == list(corpus.gold_relations)

    def test_missing_candidates_exit_code(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        cfg = _write_config(tmp_path, tmp_path / "out", paths={"notes": paths["notes"]})
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 4
        assert "run 'candidates' first" in _stderr_json(result)["message"]

    # Each command that reads an artifact of another, and that other command.
    @pytest.mark.parametrize("command,producer", [
        (["lf", "apply"], "candidates"), (["lf", "stats"], "lf apply"),
        (["labelmodel", "fit"], "lf apply"), (["train"], "labelmodel fit"),
        (["predict"], "train"), (["eval"], "predict"), (["reconcile"], "synth gen"),
        (["events", "merge"], "cohort"), (["survival", "km"], "cohort"),
        (["survival", "logrank"], "cohort"), (["survival", "cox"], "cohort"),
        (["report", "forest"], "survival cox"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_missing_upstream_names_producer(self, runner, tmp_path, command, producer):
        cfg = _write_config(tmp_path, tmp_path / "out")
        result = runner.invoke(main, command + ["--config", cfg])
        assert result.exit_code == 4, result.output
        err = _stderr_json(result)
        assert err["code"] == "missing_artifact"
        assert f"(run '{producer}' first)" in err["message"]

    def test_meta_lists_every_file_written(self, runner, tmp_path, small_corpus_dir):
        # Every command, run in order in one output directory: the files each
        # one adds are the outputs its run record names.
        _, paths, _ = small_corpus_dir
        inputs = _surveillance_inputs(tmp_path / "in")
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, params={"lf_set": "benchmark", "seed": 0}, paths={
            "notes": paths["notes"], "gold_relations": paths["gold_relations"],
            "dev_gold": paths["gold_relations"], "registry": paths["registry"],
            "patients": inputs["patients"], "text_events": inputs["text_events"]})
        options = {("regression", "nb"): ["--counts-file", inputs["counts"]],
                   ("ttest",): ["--a-file", inputs["a"], "--b-file", inputs["b"]]}
        commands = [("synth", "gen"), ("candidates",), ("lf", "apply"), ("lf", "stats"),
                    ("labelmodel", "fit"), ("train",), ("predict",), ("eval",), ("reconcile",),
                    ("cohort",), ("events", "merge"), ("survival", "km"),
                    ("survival", "logrank"), ("survival", "cox"), ("report", "forest"),
                    ("regression", "nb"), ("ttest",)]
        assert set(commands) == _command_tree(main)
        for command in commands:
            before = set(os.listdir(outdir)) if outdir.exists() else set()
            argv = [*command, "--config", cfg, *options.get(command, [])]
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, (command, result.output)
            meta_name = "_".join(command) + ".meta.json"
            meta = json.loads((outdir / meta_name).read_text())
            assert meta["command"] == " ".join(command)
            added = set(os.listdir(outdir)) - before - {meta_name}
            assert added == {os.path.basename(p) for p in meta["outputs"]}, command

    def test_damaged_candidates_exit_code(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]})
        assert runner.invoke(main, ["candidates", "--config", cfg]).exit_code == 0
        path = outdir / "candidates.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 3
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert err["context"]["line"] == 3

    def test_stale_candidates_exit_code(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        notes = tmp_path / "notes.jsonl"
        shutil.copy(paths["notes"], notes)
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={"notes": notes})
        assert runner.invoke(main, ["candidates", "--config", cfg]).exit_code == 0
        cand_mtime = os.path.getmtime(outdir / "candidates.jsonl")
        os.utime(notes, (cand_mtime + 10, cand_mtime + 10))
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 4
        assert "rerun 'candidates'" in _stderr_json(result)["message"]

    @pytest.mark.parametrize("edited", ["dictionary", "trigger_lexicon"])
    def test_stale_candidates_after_resource_edit(self, runner, tmp_path, small_corpus_dir,
                                                  edited):
        _, paths, _ = small_corpus_dir
        dictionaries = []
        for fname in DICTIONARY_FILES.values():
            dictionaries.append(tmp_path / fname)
            shutil.copy(resource_path(fname), dictionaries[-1])
        lexicon = tmp_path / "context_triggers.tsv"
        shutil.copy(resource_path("context_triggers.tsv"), lexicon)
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths={
            "notes": paths["notes"], "dictionaries": dictionaries, "trigger_lexicon": lexicon})
        assert runner.invoke(main, ["candidates", "--config", cfg]).exit_code == 0
        assert runner.invoke(main, ["lf", "apply", "--config", cfg]).exit_code == 0
        touched = dictionaries[1] if edited == "dictionary" else lexicon
        cand_mtime = os.path.getmtime(outdir / "candidates.jsonl")
        os.utime(touched, (cand_mtime + 10, cand_mtime + 10))
        result = runner.invoke(main, ["lf", "apply", "--config", cfg])
        assert result.exit_code == 4
        err = _stderr_json(result)
        assert "rerun 'candidates'" in err["message"]
        assert err["context"]["input"] == str(touched)

    # Each config path read by a command whose output a later command reads:
    # the commands run first, the command that finds their output stale, and
    # the command it names.
    @pytest.mark.parametrize("key,before,command,producer", [
        ("lf_module", [["candidates"], ["lf", "apply"]], ["labelmodel", "fit"], "lf apply"),
        ("dev_gold", [["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"]],
         ["predict"], "train"),
        ("patients", [["cohort"]], ["events", "merge"], "cohort"),
        ("text_events", [["cohort"], ["events", "merge"]], ["survival", "km"], "events merge"),
    ], ids=["lf_module", "dev_gold", "patients", "text_events"])
    def test_output_older_than_producer_input(self, runner, tmp_path, small_corpus_dir, key,
                                              before, command, producer):
        _, paths, _ = small_corpus_dir
        inputs = _surveillance_inputs(tmp_path / "in")
        module = tmp_path / "my_lfs.py"
        module.write_text("from devicesurv.lf_lib import benchmark_lfs\n\n"
                          "def get_lfs(relation_type):\n    return benchmark_lfs()\n")
        dev_gold = tmp_path / "dev_gold.csv"
        shutil.copy(paths["gold_relations"], dev_gold)
        configured = {"notes": paths["notes"], "lf_module": module, "dev_gold": dev_gold,
                      "patients": inputs["patients"], "text_events": inputs["text_events"]}
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, paths=configured, params={"seed": 0})
        for cmd in before:
            assert runner.invoke(main, cmd + ["--config", cfg]).exit_code == 0, cmd
        newest = max(os.path.getmtime(outdir / name) for name in os.listdir(outdir))
        os.utime(configured[key], (newest + 10, newest + 10))
        result = runner.invoke(main, command + ["--config", cfg])
        assert result.exit_code == 4, result.output
        err = _stderr_json(result)
        assert err["code"] == "missing_artifact"
        assert f"(rerun '{producer}')" in err["message"]
        assert err["context"]["input"] == str(configured[key])

    def test_each_artifact_has_one_producer(self):
        # Every command declares what it writes; no artifact has two writers,
        # and every artifact a command requires has one.
        assert set(cli._STAGES) == {" ".join(c) for c in _command_tree(main)}
        writes = [a for _, declared in cli._STAGES.values() for a in declared]
        assert len(writes) == len(set(writes)) == len(cli._PRODUCERS)
        with open(cli.__file__, encoding="utf-8") as fh:
            required = set(re.findall(r'_require\(cfg, "([^"]+)"\)', fh.read()))
        assert required == set(cli._ARTIFACTS)
        assert required <= set(cli._PRODUCERS)


def _chain(runner, tmp_path, paths, commands):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, paths={"notes": paths["notes"]},
                        params={"lf_set": "benchmark", "seed": 0})
    for cmd in commands:
        assert runner.invoke(main, cmd + ["--config", cfg]).exit_code == 0
    return outdir, cfg


def _surveillance_inputs(directory):
    """Seeded patients, text events, NB counts and two t-test value files for
    the surveillance commands; returns their paths."""
    rng = np.random.default_rng(0)
    directory.mkdir()
    patients = ["patient_id,birth_date,sex,race,ethnicity,cci,last_contact_date,procedures"]
    text = ["patient_id,class,date,source,provenance"]
    for i in range(80):
        procedures = f"CPT:27130:2010-01-{1 + i % 28:02d}"
        if rng.random() < 0.4:
            procedures += f";CPT:27134:{2011 + i % 3}-06-01"
            text.append(f"p{i},revision,{2011 + i % 3}-06-10,text,note:{i}")
        birth, sex, cci = 1940 + rng.integers(30), "FM"[rng.integers(2)], rng.integers(4)
        patients.append(f"p{i},{birth}-03-01,{sex},White,Unknown,{cci},2015-01-01,{procedures}")
    files = {
        "patients": "\n".join(patients),
        "text_events": "\n".join(text),
        "counts": "patient_id,count\n" + "".join(f"p{i},{rng.poisson(2)}\n" for i in range(40)),
        "a": "value\n1\n2\n3\n",
        "b": "value\n2\n3\n5\n",
    }
    for name, content in files.items():
        (directory / f"{name}.csv").write_text(content + "\n")
    return {name: str(directory / f"{name}.csv") for name in files}


def _truncate(path, size):
    data = path.read_bytes()
    path.write_bytes(data[:size if size >= 0 else len(data) + size])


def _damage_header(path, damage):
    """Rewrite a label matrix's header so it lists one candidate too few, or
    the first candidate twice; or set its last vote byte to 7."""
    line, votes = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    ids = header["candidate_ids"]
    if damage == "vote_7":
        votes = votes[:-1] + b"\x07"
    else:
        header["candidate_ids"] = (ids[:-1] if damage == "ids_short"
                                   else [ids[0]] + ids[1:-1] + [ids[0]])
    path.write_bytes(json.dumps(header).encode() + b"\n" + votes)


def _damage_model(path, damage):
    """Rewrite a classifier.bin: the last index becomes 2**40, the first -5,
    the second a copy of the first, the first two swap, the entry count
    becomes 2**62, or the first weight becomes NaN or infinite."""
    data = bytearray(path.read_bytes())
    head = 5 + 17  # magic, then n_bits, bias and threshold
    (nnz,) = struct.unpack_from("<Q", data, head)
    idx = np.frombuffer(data, dtype=np.int64, count=nnz, offset=head + 8).copy()
    weights = np.frombuffer(data, dtype=np.float64, count=nnz, offset=head + 8 + 8 * nnz).copy()
    assert nnz >= 2
    if damage == "index_2**40":
        idx[-1] = 2**40
    elif damage == "index_-5":
        idx[0] = -5
    elif damage == "index_repeated":
        idx[1] = idx[0]
    elif damage == "index_descending":
        idx[[0, 1]] = idx[[1, 0]]
    elif damage == "nnz_huge":
        nnz = 2**62
    else:
        weights[0] = {"weight_nan": np.nan, "weight_inf": np.inf}[damage]
    path.write_bytes(bytes(data[:head]) + struct.pack("<Q", nnz) + idx.tobytes()
                     + weights.tobytes())


_SCORES_CSV = "candidate_id,score,predicted_label\na,0.900000,1\nb,0.500000,0\nc,0.100000,0\n"
_COHORT_CSV = ("patient_id,index_date,last_contact_date,age_band,sex,race,ethnicity,cci\n"
               "p1,{index},2015-01-01,60-69,F,White,Unknown,none\n")
_PATIENTS_CSV = ("patient_id,birth_date,sex,race,ethnicity,cci,last_contact_date,procedures\n"
                 "p1,{birth},M,White,Unknown,{cci},2015-01-01,CPT:27130:2010-01-01\n")
_REGISTRY_CSV = ("patient_id,surgery_date,component_role,manufacturer,model\n"
                 "p1,2010-05-04,{role},Zimmer Biomet,VerSys\n")
_EVENTS_CSV = "patient_id,class,date,source,provenance\n"
_TEXT_EVENT = "p1,{cls},2012-02-03,{source},{provenance}\n"

# case: (files written to the output directory, which also holds the config;
# config paths naming them; command, where "{out}" is that directory; the
# damaged file the error must name; exit code).
_DAMAGED_INPUTS = {
    "labels_no_comma": ({"labels.csv": "candidate_id,p_true\nc1\n"}, {}, ["train"],
                        "labels.csv", 3),
    **{f"labels_p_true_{p}": ({"labels.csv": f"candidate_id,p_true\nc1,0.5\nc2,{p}\n"}, {},
                              ["train"], "labels.csv:3", 3)
       for p in ("nan", "inf", "-0.1", "7.5")},
    "gold_label_yes": ({"scores.csv": _SCORES_CSV, "gold.csv": "candidate_id,label\na,yes\n"},
                       {"gold_relations": "gold.csv"}, ["eval"], "gold.csv", 3),
    "cohort_bad_date": ({"cohort.csv": _COHORT_CSV.format(index="2010-13-01")}, {},
                        ["survival", "km"], "cohort.csv", 3),
    "cohort_no_last_contact": ({"cohort.csv": "patient_id,index_date,age_band\n"}, {},
                               ["survival", "km"], "cohort.csv", 3),
    "events_bad_date": ({"cohort.csv": _COHORT_CSV.format(index="2010-01-01"),
                         "merged_events.csv": "patient_id,class,date,source,provenance\n"
                                              "p1,revision,2012-02-30,coded,CPT:27134\n"},
                        {}, ["survival", "km"], "merged_events.csv", 3),
    "cox_truncated": ({"cox.json": '{"terms": [{"term": "implant_sys'}, {},
                      ["report", "forest"], "cox.json", 3),
    "nb_count_fraction": ({"counts.csv": "patient_id,count\np1,2\np2,1.5\n"}, {},
                          ["regression", "nb", "--counts-file", "{out}/counts.csv"],
                          "counts.csv", 3),
    "ttest_not_numeric": ({"a.csv": "value\n1\nabc\n", "b.csv": "value\n1\n2\n"}, {},
                          ["ttest", "--a-file", "{out}/a.csv", "--b-file", "{out}/b.csv"],
                          "a.csv", 3),
    "patients_bad_date": ({"patients.csv": _PATIENTS_CSV.format(birth="1950-13-01", cci=0)},
                          {"patients": "patients.csv"}, ["cohort"], "patients.csv", 3),
    "patients_bad_cci": ({"patients.csv": _PATIENTS_CSV.format(birth="1950-06-01", cci="two")},
                         {"patients": "patients.csv"}, ["cohort"], "patients.csv", 3),
    "patients_negative_cci": (
        {"patients.csv": _PATIENTS_CSV.format(birth="1950-06-01", cci=-1)},
        {"patients": "patients.csv"}, ["cohort"], "patients.csv:2", 3),
    "config_not_object": ({"config.json": "[]"}, {}, ["cohort"], "config.json", 2),
    "config_paths_not_object": ({"config.json": '{"output_dir": ".", "paths": ["a"]}'}, {},
                                ["cohort"], "config.json", 2),
    "config_params_not_object": ({"config.json": '{"output_dir": ".", "params": "x"}'}, {},
                                 ["cohort"], "config.json", 2),
    "config_output_dir_not_string": ({"config.json": '{"output_dir": 5}'}, {}, ["cohort"],
                                     "output_dir", 2),
    "config_path_null": ({"config.json": '{"output_dir": ".", "paths": {"notes": null}}'}, {},
                         ["candidates"], "paths.notes", 2),
    "config_path_list": ({"config.json": '{"output_dir": ".", "paths": {"notes": ["a"]}}'}, {},
                         ["candidates"], "paths.notes", 2),
    "config_list_path_string": (
        {"config.json": '{"output_dir": ".", "paths": {"dictionaries": "p.tsv"}}'}, {},
        ["candidates"], "paths.dictionaries", 2),
    "registry_unknown_role": ({"extracted_implants.csv": _REGISTRY_CSV.format(role="femoral"),
                               "registry.csv": _REGISTRY_CSV.format(role="hip")},
                              {"registry": "registry.csv"}, ["reconcile"], "registry.csv:2", 3),
    "registry_empty_model": ({"extracted_implants.csv": _REGISTRY_CSV.format(role="femoral"),
                              "registry.csv": _REGISTRY_CSV.format(role="femoral")
                                              .replace("VerSys", "")},
                             {"registry": "registry.csv"}, ["reconcile"], "registry.csv:2", 3),
    "catalog_truncated": ({"extracted_implants.csv": _REGISTRY_CSV.format(role="femoral"),
                           "registry.csv": _REGISTRY_CSV.format(role="femoral"),
                           "catalog.json": '{"bad json'},
                          {"registry": "registry.csv", "implant_catalog": "catalog.json"},
                          ["reconcile"], "catalog.json", 3),
    "catalog_not_object": ({"extracted_implants.csv": _REGISTRY_CSV.format(role="femoral"),
                            "registry.csv": _REGISTRY_CSV.format(role="femoral"),
                            "catalog.json": "[1,2]"},
                           {"registry": "registry.csv", "implant_catalog": "catalog.json"},
                           ["reconcile"], "catalog.json", 3),
    "text_event_no_provenance": (
        {"coded_events.csv": _EVENTS_CSV,
         "text.csv": _EVENTS_CSV + _TEXT_EVENT.format(cls="revision", source="text",
                                                      provenance="")},
        {"text_events": "text.csv"}, ["events", "merge"], "text.csv:2", 3),
    "text_event_unknown_class": (
        {"coded_events.csv": _EVENTS_CSV,
         "text.csv": _EVENTS_CSV + _TEXT_EVENT.format(cls="bogus", source="text",
                                                      provenance="note-1")},
        {"text_events": "text.csv"}, ["events", "merge"], "text.csv:2", 3),
    "text_event_unknown_source": (
        {"coded_events.csv": _EVENTS_CSV,
         "text.csv": _EVENTS_CSV + _TEXT_EVENT.format(cls="revision", source="txt",
                                                      provenance="note-1")},
        {"text_events": "text.csv"}, ["events", "merge"], "text.csv:2", 3),
    "cox_not_object": ({"cox.json": "[]"}, {}, ["report", "forest"], "cox.json", 3),
    "cox_terms_not_list": ({"cox.json": '{"groups": {}, "terms": {"HR": 1}}'}, {},
                           ["report", "forest"], "cox.json", 3),
    "cox_group_no_counts": ({"cox.json": '{"groups": {"A": {"n_events": 1}}, "terms": []}'}, {},
                            ["report", "forest"], "cox.json", 3),
}

# case: (files holding a 0xff byte, which is not UTF-8, written as for
# _DAMAGED_INPUTS; config paths; command; the file the error must name).
_NOT_UTF8_INPUTS = {
    "patients": ({"patients.csv": _PATIENTS_CSV.format(birth="1950-06-01", cci=0).encode()
                  .replace(b"White", b"Wh\xffte")},
                 {"patients": "patients.csv"}, ["cohort"], "patients.csv"),
    "candidates": ({"candidates.jsonl": b'{"candidate_id": "c\xff"}\n'}, {}, ["lf", "apply"],
                   "candidates.jsonl"),
    "notes": ({"notes.jsonl": b'{"note_id": "n\xff"}\n'}, {"notes": "notes.jsonl"},
              ["candidates"], "notes.jsonl"),
    "dictionary": ({"notes.jsonl": b"", "pain.tsv": b"hip p\xffin\tpain\tpain\n"},
                   {"notes": "notes.jsonl", "dictionaries": ["pain.tsv"]}, ["candidates"],
                   "pain.tsv"),
    "trigger_lexicon": ({"notes.jsonl": b"", "triggers.tsv": b"n\xffo\tnegation\tforward\n"},
                        {"notes": "notes.jsonl", "trigger_lexicon": "triggers.tsv"},
                        ["candidates"], "triggers.tsv"),
    "catalog": ({"extracted_implants.csv": _REGISTRY_CSV.format(role="femoral").encode(),
                 "registry.csv": _REGISTRY_CSV.format(role="femoral").encode(),
                 "catalog.json": b'{"\xff": {}}'},
                {"registry": "registry.csv", "implant_catalog": "catalog.json"}, ["reconcile"],
                "catalog.json"),
    "config": ({"config.json": b'{"output_dir": "\xff"}'}, {}, ["cohort"], "config.json"),
}


class TestDamagedArtifacts:
    # Sizes cut the header line, then the vote bytes; the named cases leave
    # the header's id lists at odds with its shape, or a vote byte invalid.
    @pytest.mark.parametrize("size", [10, -3, "ids_short", "ids_repeated", "vote_7"])
    def test_damaged_label_matrix_exit_code(self, runner, tmp_path, small_corpus_dir, size):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [["candidates"], ["lf", "apply"]])
        if isinstance(size, int):
            _truncate(outdir / "label_matrix.bin", size)
        else:
            _damage_header(outdir / "label_matrix.bin", size)
        result = runner.invoke(main, ["labelmodel", "fit", "--config", cfg])
        assert result.exit_code == 3
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert "label_matrix.bin" in err["message"]

    # Sizes cut the struct fields after the magic, then the weight block;
    # one case damages the JSON sidecar, and the named ones rewrite the index
    # or weight block (see _damage_model).
    @pytest.mark.parametrize("name,damage", [
        ("classifier.bin", 12), ("classifier.bin", -4), ("classifier.bin.json", 20),
        ("classifier.bin", "index_2**40"), ("classifier.bin", "index_-5"),
        ("classifier.bin", "index_repeated"), ("classifier.bin", "index_descending"),
        ("classifier.bin", "nnz_huge"), ("classifier.bin", "weight_nan"),
        ("classifier.bin", "weight_inf"),
    ])
    def test_damaged_classifier_exit_code(self, runner, tmp_path, small_corpus_dir, name,
                                          damage):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [
            ["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"]])
        if isinstance(damage, int):
            _truncate(outdir / name, damage)
        else:
            _damage_model(outdir / name, damage)
        result = runner.invoke(main, ["predict", "--config", cfg])
        assert result.exit_code == 3
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert "classifier.bin" in err["message"]

    # A model file written under another feature scheme, its sidecar digest
    # consistent with that scheme, or whose header names another n_bits.
    @pytest.mark.parametrize("change", [("n_bits", 12), ("window", 5), "header_n_bits"],
                             ids=["n_bits_12", "window_5", "header_n_bits_12"])
    def test_other_feature_scheme_exit_code(self, runner, tmp_path, small_corpus_dir, change):
        _, paths, _ = small_corpus_dir
        outdir, cfg = _chain(runner, tmp_path, paths, [
            ["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"]])
        if change == "header_n_bits":
            raw = bytearray((outdir / "classifier.bin").read_bytes())
            raw[5] = 12
            (outdir / "classifier.bin").write_bytes(bytes(raw))
        else:
            sidecar = json.loads((outdir / "classifier.bin.json").read_text())
            scheme = sidecar["feature_config"]
            scheme[change[0]] = change[1]
            raw = f"v1|{scheme['n_bits']}|{scheme['ngram_max']}|{scheme['window']}"
            sidecar["feature_digest"] = hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()
            (outdir / "classifier.bin.json").write_text(json.dumps(sidecar))
        result = runner.invoke(main, ["predict", "--config", cfg])
        assert result.exit_code == 2, result.output
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert "classifier.bin" in err["message"]

    @pytest.mark.parametrize("case", list(_DAMAGED_INPUTS))
    def test_damaged_input_exit_code(self, runner, tmp_path, case):
        files, paths, command, damaged, code = _DAMAGED_INPUTS[case]
        cfg = _write_config(tmp_path, tmp_path, paths={k: tmp_path / v for k, v in paths.items()})
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(out=tmp_path) for arg in command] + ["--config", cfg]
        result = runner.invoke(main, argv)
        assert result.exit_code == code, result.output
        err = _stderr_json(result)
        assert err["code"] == {2: "config", 3: "input_format"}[code]
        assert damaged in err["message"]

    @pytest.mark.parametrize("case", list(_NOT_UTF8_INPUTS))
    def test_not_utf8_input_exit_code(self, runner, tmp_path, case):
        files, paths, command, damaged = _NOT_UTF8_INPUTS[case]
        cfg = _write_config(tmp_path, tmp_path, paths={
            k: [tmp_path / x for x in v] if isinstance(v, list) else tmp_path / v
            for k, v in paths.items()})
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        result = runner.invoke(main, command + ["--config", cfg])
        assert result.exit_code == 3, result.output
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert damaged in err["message"]


def _eval_setup(tmp_path, scores_csv=_SCORES_CSV):
    """An output directory with a hand-written scores.csv, plus a gold file."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "scores.csv").write_text(scores_csv)
    gold = tmp_path / "gold.csv"
    gold.write_text("candidate_id,label\na,1\nb,1\nc,0\n")
    return outdir, _write_config(tmp_path, outdir, paths={"gold_relations": gold})


class TestEvalCommand:
    def test_scores_predicted_labels(self, runner, tmp_path):
        # "b" reads 0.500000, but predict wrote label 0 from its full-precision
        # score (below 0.5): eval counts it as a negative, so a false negative.
        outdir, cfg = _eval_setup(tmp_path)
        result = runner.invoke(main, ["eval", "--config", cfg])
        assert result.exit_code == 0, result.output
        header, row = (outdir / "metrics.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(","))) == {
            "precision": "100.0", "recall": "50.0", "f1": "66.7", "tp": "1", "fp": "0", "fn": "1"}

    @pytest.mark.parametrize("scores_csv", [
        "candidate_id,score\na,0.900000\n",
        "candidate_id,score,predicted_label\na,0.900000,2\n",
        "candidate_id,score,predicted_label\na,0.900000\n",
    ], ids=["no_label_column", "label_2", "label_missing"])
    def test_bad_scores_file_exit_code(self, runner, tmp_path, scores_csv):
        _, cfg = _eval_setup(tmp_path, scores_csv)
        result = runner.invoke(main, ["eval", "--config", cfg])
        assert result.exit_code == 3
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert "scores.csv" in err["message"]


    def test_gold_label_other_than_0_or_1_exit_code(self, runner, tmp_path):
        # select_threshold counts a label of 2 in neither class, so every
        # gold reader refuses it rather than counting it as a positive.
        _, cfg = _eval_setup(tmp_path)
        (tmp_path / "gold.csv").write_text("candidate_id,label\na,1\nb,2\nc,0\n")
        result = runner.invoke(main, ["eval", "--config", cfg])
        assert result.exit_code == 3
        err = _stderr_json(result)
        assert err["code"] == "input_format"
        assert f"{tmp_path / 'gold.csv'}:3" in err["message"]


class TestPipelineChain:
    def test_full_chain(self, runner, tmp_path, small_corpus_dir):
        _, paths, corpus = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(
            tmp_path,
            outdir,
            paths={
                "notes": paths["notes"],
                "gold_relations": paths["gold_relations"],
                "dev_gold": paths["gold_relations"],
            },
            params={"lf_set": "benchmark", "seed": 0},
        )
        for cmd in (
            ["candidates"],
            ["lf", "apply"],
            ["lf", "stats"],
            ["labelmodel", "fit"],
            ["train"],
            ["predict"],
            ["eval"],
        ):
            result = runner.invoke(main, cmd + ["--config", cfg])
            assert result.exit_code == 0, (cmd, result.output, result.stderr)
        for artifact in (
            "label_matrix.bin", "lf_stats.csv", "label_model.json", "labels.csv",
            "classifier.bin", "scores.csv", "metrics.csv",
        ):
            assert (outdir / artifact).exists()
        metrics = (outdir / "metrics.csv").read_text().splitlines()[1]
        f1 = float(metrics.split(",")[2])
        assert f1 >= 90.0

    def test_rerun_is_deterministic(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outputs = []
        for run in range(2):
            outdir = tmp_path / f"out{run}"
            cfg = _write_config(
                tmp_path,
                outdir,
                paths={
                    "notes": paths["notes"],
                    "gold_relations": paths["gold_relations"],
                    "dev_gold": paths["gold_relations"],
                },
                params={"lf_set": "benchmark", "seed": 0},
            )
            for cmd in (["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"],
                        ["predict"]):
                assert runner.invoke(main, cmd + ["--config", cfg]).exit_code == 0
            outputs.append((outdir / "scores.csv").read_text())
        assert outputs[0] == outputs[1]


class TestPinnedOutput:
    # sha1 of the classifier artifacts over the synth corpus, recorded while
    # the model still held a dim-long weight vector; storing only its active
    # columns must keep these bytes.
    @pytest.mark.parametrize("seed,digests", [
        (0, {"classifier.bin": "b0e61ef29d38d57d6410db59be8a2666bc66cacf",
             "classifier.bin.json": "53c679bbd00617bf39961f2620aa3fe50fd6727b",
             "scores.csv": "74bdddd5e46ac16e249352367893bafc0ac3900c"}),
        (1, {"classifier.bin": "972702e689c5f965862af85c8155091e8c7f418f",
             "classifier.bin.json": "b39731e4112bb50a66e24293a9c3b150e9d73cce",
             "scores.csv": "4752560c095b9a869d4c355fc0e2fe325a634728"}),
    ])
    def test_classifier_artifact_digests(self, runner, tmp_path, seed, digests):
        paths = synth.write_corpus(synth.gen_corpus(synth.SynthConfig(seed=seed)), tmp_path)
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir,
                            paths={"notes": paths["notes"], "dev_gold": paths["gold_relations"]},
                            params={"lf_set": "benchmark", "seed": 0})
        for cmd in (["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"],
                    ["predict"]):
            result = runner.invoke(main, cmd + ["--config", cfg])
            assert result.exit_code == 0, (cmd, result.output)
        assert {name: hashlib.sha1((outdir / name).read_bytes()).hexdigest()
                for name in digests} == digests


class TestReconcileCommand:
    def test_reconcile_smoke(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        outdir.mkdir()
        import shutil

        shutil.copy(paths["extracted_implants"], outdir / "extracted_implants.csv")
        cfg = _write_config(tmp_path, outdir, paths={"registry": paths["registry"]})
        result = runner.invoke(main, ["reconcile", "--config", cfg])
        assert result.exit_code == 0
        summary = json.loads((outdir / "reconciliation_summary.json").read_text())
        assert summary["fractions"]["agreement"] == 1.0


class TestStatsCommands:
    def test_regression_nb(self, runner, tmp_path):
        counts_file = tmp_path / "counts.csv"
        counts_file.write_text(
            "patient_id,count\n" + "".join(f"p{i},{2 + i % 2}\n" for i in range(40))
        )
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir)
        result = runner.invoke(
            main, ["regression", "nb", "--config", cfg, "--counts-file", str(counts_file)]
        )
        assert result.exit_code == 0
        payload = json.loads((outdir / "nb.json").read_text())
        assert payload["terms"][0]["term"] == "intercept"

    def test_regression_nb_exposure_column(self, runner, tmp_path):
        # Doubling every exposure lowers the intercept by log 2.
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir)
        intercepts = []
        for exposure in ("", ",1", ",2"):
            counts_file = tmp_path / "counts.csv"
            counts_file.write_text(
                f"patient_id,count{',exposure' if exposure else ''}\n"
                + "".join(f"p{i},{2 + i % 3}{exposure}\n" for i in range(40)))
            result = runner.invoke(
                main, ["regression", "nb", "--config", cfg, "--counts-file", str(counts_file)])
            assert result.exit_code == 0, result.output
            intercepts.append(json.loads((outdir / "nb.json").read_text())["terms"][0]["coef"])
        assert intercepts[0] == intercepts[1]
        assert intercepts[1] - intercepts[2] == pytest.approx(np.log(2), rel=1e-9)

    @pytest.mark.parametrize("exposure", ["0", "nan"])
    def test_regression_nb_refuses_bad_exposure(self, runner, tmp_path, exposure):
        counts_file = tmp_path / "counts.csv"
        counts_file.write_text("patient_id,count,exposure\n"
                               + "".join(f"p{i},{2 + i % 3},1\n" for i in range(9))
                               + f"p9,2,{exposure}\n")
        cfg = _write_config(tmp_path, tmp_path / "out")
        result = runner.invoke(
            main, ["regression", "nb", "--config", cfg, "--counts-file", str(counts_file)])
        assert result.exit_code == 2, result.output
        err = _stderr_json(result)
        assert err["code"] == "config"
        assert err["message"] == "exposure must be positive and finite"

    def test_logrank_groups_by_further_cohort_column(self, runner, tmp_path):
        # Any cohort.csv column after the id and dates is a covariate to group by.
        rows = "".join(f"p{i},{'AB'[i % 2]},2010-01-01,2015-01-01,60-69,F,White,Unknown,none\n"
                       for i in range(6))
        (tmp_path / "cohort.csv").write_text(
            "patient_id,implant_system,index_date,last_contact_date,age_band,sex,race,"
            "ethnicity,cci\n" + rows)
        (tmp_path / "merged_events.csv").write_text(
            "patient_id,class,date,source,provenance\n"
            "p1,revision,2012-02-01,coded,CPT:27134\np3,revision,2013-02-01,coded,CPT:27134\n")
        cfg = _write_config(tmp_path, tmp_path)
        result = runner.invoke(
            main, ["survival", "logrank", "--config", cfg, "--group-by", "implant_system"])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "logrank.json").read_text())["df"] == 1

    def test_ttest(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value\n1\n2\n3\n")
        b.write_text("value\n2\n3\n4\n")
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir)
        result = runner.invoke(
            main, ["ttest", "--config", cfg, "--a-file", str(a), "--b-file", str(b)]
        )
        assert result.exit_code == 0
        payload = json.loads((outdir / "ttest.json").read_text())
        assert payload["df"] == pytest.approx(4.0)

    def test_report_forest_from_cox_artifact(self, runner, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        cox = {
            "terms": [
                {"term": "implant_system=B", "coef": 0.7, "se": 0.1, "HR": 2.014,
                 "CI_low": 1.656, "CI_high": 2.449, "p": 0.0001}
            ],
            "groups": {
                "A": {"n_patients": 50, "n_events": 5, "person_years": 123.4},
                "B": {"n_patients": 50, "n_events": 12, "person_years": 110.0},
            },
        }
        (outdir / "cox.json").write_text(json.dumps(cox))
        cfg = _write_config(tmp_path, outdir)
        result = runner.invoke(main, ["report", "forest", "--config", cfg])
        assert result.exit_code == 0
        lines = (outdir / "forest.csv").read_text().splitlines()
        assert lines[0] == "system,n_patients,n_events,person_years,HR,CI_low,CI_high,p"
        row_a = lines[1].split(",")
        assert row_a[0] == "A" and row_a[4] == ""  # reference level, blank HR
        row_b = lines[2].split(",")
        assert row_b[4] == "2.014"


class TestSynthCommand:
    def test_synth_gen(self, runner, tmp_path):
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir, params={"seed": 1})
        result = runner.invoke(main, ["synth", "gen", "--config", cfg])
        assert result.exit_code == 0
        for name in ("notes.jsonl", "gold_relations.csv", "gold_events.csv",
                     "registry.csv", "extracted_implants.csv"):
            assert (outdir / name).exists()


def _fresh_stdout(code, env=os.environ):
    """The stdout of ``code`` run by a fresh interpreter with ``env``."""
    src = os.path.dirname(os.path.dirname(devicesurv.__file__))
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120).stdout


def _modules_after(statement):
    """The sorted sys.modules keys of a fresh interpreter after ``statement``."""
    return set(_fresh_stdout(f"{statement}; import sys; print(' '.join(sys.modules))").split())


# Each benchmark command and `report forest`: the devicesurv modules it loads
# besides cli and errors, and which of numpy and scipy it loads.
_COMMAND_IMPORTS = {
    ("candidates",): ("corpus defaults extraction", ""),
    ("lf", "apply"): ("corpus extraction lf_lib weaksup", "numpy"),
    ("lf", "stats"): ("evaluation weaksup", "numpy"),
    ("labelmodel", "fit"): ("weaksup", "numpy"),
    ("train",): ("classifier corpus evaluation extraction lf_lib weaksup", "numpy"),
    ("predict",): ("classifier corpus evaluation extraction lf_lib weaksup", "numpy"),
    ("eval",): ("evaluation", ""),
    ("cohort",): ("outcomes", ""),
    ("events", "merge"): ("outcomes", ""),
    ("survival", "km"): ("outcomes survival", "numpy"),
    ("survival", "logrank"): ("outcomes survival", "numpy scipy"),
    ("survival", "cox"): ("outcomes survival", "numpy scipy"),
    ("regression", "nb"): ("countreg outcomes survival", "numpy scipy"),
    ("reconcile",): ("defaults outcomes reconcile", ""),
    ("report", "forest"): ("", ""),
}


@pytest.fixture(scope="module")
def every_input(tmp_path_factory, small_corpus_dir):
    """A config, and each command's options, whose output directory holds
    every artifact a command reads: the commands have run once, in order."""
    _, paths, _ = small_corpus_dir
    tmp = tmp_path_factory.mktemp("every_input")
    inputs = _surveillance_inputs(tmp / "in")
    outdir = tmp / "out"
    outdir.mkdir()
    shutil.copy(paths["extracted_implants"], outdir / "extracted_implants.csv")
    cfg = _write_config(tmp, outdir, params={"lf_set": "benchmark", "seed": 0}, paths={
        "notes": paths["notes"], "gold_relations": paths["gold_relations"],
        "dev_gold": paths["gold_relations"], "registry": paths["registry"],
        "patients": inputs["patients"], "text_events": inputs["text_events"]})
    options = {("regression", "nb"): ["--counts-file", inputs["counts"]]}
    runner = CliRunner()
    for command in _COMMAND_IMPORTS:
        result = runner.invoke(main, [*command, "--config", cfg, *options.get(command, [])])
        assert result.exit_code == 0, (command, result.output)
    return cfg, options


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        modules = _modules_after("import devicesurv.cli")
        assert "devicesurv.cli" in modules
        assert "scipy" not in modules
        assert "devicesurv.synth" not in modules

    def test_cli_import_loads_no_numpy(self):
        modules = _modules_after("import devicesurv.cli")
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("devicesurv.")} == {
            "devicesurv.cli", "devicesurv.errors"}

    @pytest.mark.parametrize("command", list(_COMMAND_IMPORTS), ids=" ".join)
    def test_command_loads_only_what_it_runs(self, every_input, command):
        # A fresh interpreter runs the command as the console script would.
        cfg, options = every_input
        argv = [*command, "--config", cfg, *options.get(command, [])]
        modules = _modules_after(
            f"from devicesurv.cli import main; main({argv!r}, standalone_mode=False)")
        own, libraries = _COMMAND_IMPORTS[command]
        assert {m.split(".")[1] for m in modules if m.startswith("devicesurv.")} == {
            "cli", "errors", *own.split()}
        assert {lib for lib in ("numpy", "scipy") if lib in modules} == set(libraries.split())

    def test_synth_loads_no_extractor(self):
        # synth only generates: it never tags its own notes, so its gold stays
        # independent of the code that gold grades.
        modules = _modules_after("import devicesurv.synth")
        assert "devicesurv.synth" in modules
        for name in ("extraction", "defaults", "lf_lib"):
            assert f"devicesurv.{name}" not in modules

    @pytest.mark.parametrize("user_env,expected", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
    ], ids=["unset", "openblas_set", "omp_set"])
    def test_one_blas_thread_unless_user_sets_one(self, user_env, expected):
        blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars} | user_env
        # The CLI loads no numpy itself; the first command that does starts
        # OpenBLAS under the value the CLI set.
        value, threads = _fresh_stdout(
            "import os, devicesurv.cli, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
            "len(os.listdir('/proc/self/task')))", env).split()
        assert value == expected
        if not user_env and (os.cpu_count() or 1) > 1:
            assert threads == "1"  # numpy's OpenBLAS started no second thread

    def test_statistics_modules_load_no_scipy_stats(self):
        modules = _modules_after("import devicesurv.survival, devicesurv.countreg")
        assert "scipy.special" in modules
        assert "scipy.stats" not in modules

    def test_eval_loads_no_classifier_or_scipy(self, tmp_path):
        _, cfg = _eval_setup(tmp_path)
        modules = _modules_after(
            f"from devicesurv.cli import main; main(['eval', '--config', {cfg!r}], "
            "standalone_mode=False)")
        assert "devicesurv.evaluation" in modules
        assert "devicesurv.classifier" not in modules
        assert "scipy" not in modules

    def test_train_and_predict_load_no_scipy(self, runner, tmp_path, small_corpus_dir):
        _, paths, _ = small_corpus_dir
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir,
                            paths={"notes": paths["notes"], "dev_gold": paths["gold_relations"]},
                            params={"lf_set": "benchmark", "seed": 0})
        for cmd in (["candidates"], ["lf", "apply"], ["labelmodel", "fit"]):
            assert runner.invoke(main, cmd + ["--config", cfg]).exit_code == 0
        modules = _modules_after(
            "from devicesurv.cli import main; "
            f"main(['train', '--config', {cfg!r}], standalone_mode=False); "
            f"main(['predict', '--config', {cfg!r}], standalone_mode=False)")
        assert "devicesurv.classifier" in modules
        assert "scipy" not in modules
        assert (outdir / "scores.csv").exists()

    def test_survival_km_loads_no_scipy(self, tmp_path):
        (tmp_path / "cohort.csv").write_text(_COHORT_CSV.format(index="2010-01-01"))
        (tmp_path / "merged_events.csv").write_text(
            "patient_id,class,date,source,provenance\np1,revision,2012-02-01,coded,CPT:27134\n")
        cfg = _write_config(tmp_path, tmp_path)
        modules = _modules_after(
            f"from devicesurv.cli import main; main(['survival', 'km', '--config', {cfg!r}], "
            "standalone_mode=False)")
        assert "devicesurv.survival" in modules
        assert "scipy" not in modules
        assert (tmp_path / "km.csv").read_text().splitlines()[1:] == ["761,0.000000,1,1"]

    @pytest.mark.parametrize("command,doc", [
        (["train"], "Train the noise-aware classifier on the probabilistic labels."),
        (["predict"], "Score candidates with the trained classifier; write scores.csv."),
        (["eval"], "Score predictions against gold labels; write metrics.csv."),
        (["ttest"], "Two-sided Welch t-test between two value files."),
    ])
    def test_help_keeps_docstring(self, runner, command, doc):
        result = runner.invoke(main, command + ["--help"])
        assert result.exit_code == 0
        assert doc in result.output

    @pytest.mark.parametrize("command", sorted(_command_tree(main)), ids=" ".join)
    def test_every_command_has_help(self, runner, command):
        # Its own --help shows a description, and so does its group's listing.
        group = main
        for name in command[:-1]:
            group = group.commands[name]
        doc = group.commands[command[-1]].help
        assert doc and doc.strip()
        assert doc.split()[0] in runner.invoke(main, [*command, "--help"]).output
        listing = runner.invoke(main, [*command[:-1], "--help"]).output
        assert re.search(rf"^  {command[-1]} +\S", listing, re.M), listing


def _readme_commands():
    """Every `devicesurv <cmd> [<sub>]` in README's bash blocks, with
    `a|b|c` alternatives expanded."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    found = set()
    for line in "".join(blocks).splitlines():
        words = line.split("#")[0].split()
        if words[:1] != ["devicesurv"]:
            continue
        names = list(itertools.takewhile(lambda w: not w.startswith("-"), words[1:]))
        found.update(itertools.product(*(name.split("|") for name in names)))
    return found


class TestDocs:
    def test_readme_lists_every_command(self):
        assert _readme_commands() == _command_tree(main)
