"""The README's examples run as written."""

import json
import re
from dataclasses import fields
from enum import Enum
from pathlib import Path

from polarpark import SimConfig, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(code_block("python"), str(README), "exec"), {})
    assert "SimStatus" in capsys.readouterr().out


def test_simulate_config_runs_through_the_cli(tmp_path):
    config = tmp_path / "experiment.json"
    config.write_text(code_block("json"), encoding="utf-8")
    assert json.loads(config.read_text(encoding="utf-8"))["sim"]["integrator"] == "rk45"
    out = tmp_path / "results"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "summary.json").is_file() and (out / "ic_001.csv").is_file()


def test_simulate_config_lists_every_sim_setting_at_its_default():
    # README says "the values above are the defaults"
    defaults = {f.name: f.default.value if isinstance(f.default, Enum) else f.default
                for f in fields(SimConfig)}
    assert json.loads(code_block("json"))["sim"] == defaults


def test_verify_command_runs_through_the_cli(tmp_path):
    lines = re.findall(r"^polarpark verify (--.*)$", README.read_text(encoding="utf-8"), re.M)
    assert lines == ["--suite all --seed 0"]
    assert cli.main(["verify", *lines[0].split(), "--out", str(tmp_path)]) == 0
    reports = [p for p in tmp_path.glob("verify_*.json") if p.name != "verify_summary.json"]
    assert len(reports) == 81
    summary = json.loads((tmp_path / "verify_summary.json").read_text(encoding="utf-8"))
    assert summary["n_checks"] == 81 and summary["n_failed"] == 0


def test_config_docs_name_every_known_top_level_key():
    # each command rejects any other top-level key, so README and validator must agree
    text = README.read_text(encoding="utf-8")
    for command, keys in cli._CONFIG_KEYS.items():
        listed = re.search(rf"^ *\* {command} reads (.*?)\.$", text, re.M | re.S)
        assert listed, f"README lists no top-level keys for {command}"
        assert set(re.findall(r'`"(\w+)"`', listed.group(1))) == keys
    assert set(json.loads(code_block("json"))) <= cli._CONFIG_KEYS["simulate"]
