"""Experiment configuration.

A small INI dialect: one [run] section for the numeric knobs, one
[representation] section, and any number of [test_function.NAME]
sections, each parsed straight into an `analysis.TestFunction`.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from ..analysis import TestFunction
from ..errors import ConfigError
from ..fuchsian import L_MAX_CAP

_PRESETS = ("bolza",)
_REP_KINDS = ("character", "file")

_RUN_KEYS = ("preset", "L_max", "level", "count", "shift", "threshold",
             "budget", "out_dir")
_TF_PREFIX = "test_function."


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "bolza"
    L_max: float = 6.0
    level: int = 4
    count: int = 300
    shift: complex = 0j
    threshold: float = 0.05
    budget: int = 6_000_000
    out_dir: str = "runs"
    rep_kind: str = "character"
    rep_character: tuple = (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)
    rep_path: str = ""
    test_functions: tuple = (("main", TestFunction(T=4.0, k=2)),)  # (name, f)

    @property
    def advisory_short_window(self) -> bool:
        """True when some test function looks past the enumerated lengths."""
        return self.L_max < max(f.T for _, f in self.test_functions)


def _complex_of(s: str, where: str) -> complex:
    try:
        return complex(s.strip())
    except ValueError:
        raise ConfigError("%s: cannot parse %r as a complex number" % (where, s))


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.preset not in _PRESETS:
        raise ConfigError("unknown preset %r" % cfg.preset)
    if not 0.0 < cfg.L_max <= L_MAX_CAP:
        raise ConfigError(
            "L_max must lie in (0, %g], got %g: longer cutoffs need exact "
            "word arithmetic (ROADMAP item 2)" % (L_MAX_CAP, cfg.L_max)
        )
    if not 0 <= cfg.level <= 7:
        raise ConfigError("level must lie in [0, 7], got %d" % cfg.level)
    if cfg.count < 1:
        raise ConfigError("count must be positive")
    if not 0.0 < cfg.threshold <= 1.0:
        raise ConfigError("threshold must lie in (0, 1]")
    if cfg.budget < 1000:
        raise ConfigError("budget below any useful enumeration size")
    if cfg.rep_kind not in _REP_KINDS:
        raise ConfigError("rep kind must be one of %s" % (_REP_KINDS,))
    if cfg.rep_kind == "character":
        if len(cfg.rep_character) != 4 or any(z == 0 for z in cfg.rep_character):
            raise ConfigError("character needs 4 nonzero values")
    elif not cfg.rep_path:
        raise ConfigError("rep kind 'file' needs a path")
    if not cfg.test_functions:
        raise ConfigError("at least one [test_function.NAME] section required")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % exc)

    kw = {}
    if cp.has_section("run"):
        run = cp["run"]
        for key in run:
            if key not in _RUN_KEYS:
                raise ConfigError("unknown [run] key %r" % key)
        if "preset" in run:
            kw["preset"] = run["preset"].strip()
        if "L_max" in run:
            kw["L_max"] = float(run["L_max"])
        if "level" in run:
            kw["level"] = int(run["level"])
        if "count" in run:
            kw["count"] = int(run["count"])
        if "shift" in run:
            kw["shift"] = _complex_of(run["shift"], "[run] shift")
        if "threshold" in run:
            kw["threshold"] = float(run["threshold"])
        if "budget" in run:
            kw["budget"] = int(run["budget"])
        if "out_dir" in run:
            kw["out_dir"] = run["out_dir"].strip()

    if cp.has_section("representation"):
        rep = cp["representation"]
        kind = rep.get("kind", "character").strip()
        kw["rep_kind"] = kind
        if "values" in rep:
            vals = [
                _complex_of(s, "[representation] values")
                for s in rep["values"].split(",")
            ]
            kw["rep_character"] = tuple(vals)
        if "path" in rep:
            kw["rep_path"] = rep["path"].strip()

    tfs = []
    for section in cp.sections():
        if section in ("run", "representation"):
            continue
        if not section.startswith(_TF_PREFIX):
            raise ConfigError("unknown section [%s]" % section)
        name = section[len(_TF_PREFIX):]
        body = cp[section]
        for key in body:
            if key not in ("T", "k"):
                raise ConfigError("unknown key %r in [%s]" % (key, section))
        if "T" not in body:
            raise ConfigError("[%s] needs T" % section)
        try:
            f = TestFunction(T=float(body["T"]), k=int(body.get("k", "1")))
        except ValueError as exc:
            raise ConfigError("[%s]: %s" % (section, exc))
        tfs.append((name, f))
    if tfs:
        kw["test_functions"] = tuple(tfs)

    try:
        cfg = ExperimentConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad config value: %s" % exc)
    return validate(cfg)


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError("config file %s does not exist" % path)
    with open(path) as fh:
        return parse_config(fh.read())
