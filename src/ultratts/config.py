"""Experiment configuration: line-oriented ``key = value`` sections.

Each section holds the ``ExperimentConfig`` fields that ``SECTIONS`` lists
for it, keyed by field name less any ``_ratio`` suffix. A key's type is its
field's annotation; the defaults of the network, the SGD schedule and the
component cap are the constants of the modules that use them. The acoustic
frame is no setting: the corpus format fixes it (``acoustic.FRAME_SHIFT`` and
the stream widths), so a config may not claim another.

Values are taken literally: ``%`` is an ordinary character, not
interpolation syntax. A file that is not a valid config (no section header,
a key given twice, bytes that are not UTF-8) raises ConfigError.

Relative data paths in a config file are resolved against the file's
directory, so a config can live next to its corpus. ``write_config`` writes
them absolute, taking relative ones against the working directory, so a
written config, such as the echo in each run directory, reparses to an
identical record wherever it lies.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from . import eigentongues, mlp
from .errors import ArgumentError, ConfigError

SYSTEMS = ("ult2wav", "txt2wav", "txt+ult2wav")

_AT_LEAST_ONE = (
    "resize_rows", "resize_cols", "max_components", "hidden_layers", "hidden_units",
)


@dataclass(frozen=True)
class ExperimentConfig:
    ultrasound_dir: Path
    label_dir: Path
    acoustic_dir: Path
    question_file: Path
    speaker: str = "spk"
    system: str = "txt+ult2wav"
    seed: int = 1
    train_ratio: float = 0.85
    dev_ratio: float = 0.10
    test_ratio: float = 0.05
    resize_rows: int = 64
    resize_cols: int = 128
    variance_target: float = 0.70
    max_components: int = eigentongues.MAX_COMPONENTS
    hidden_layers: int = len(mlp.DEFAULT_HIDDEN)
    hidden_units: int = mlp.DEFAULT_HIDDEN[0]
    max_epochs: int = mlp.TrainingSchedule.max_epochs
    warmup_epochs: int = mlp.TrainingSchedule.warmup_epochs
    base_lr: float = mlp.TrainingSchedule.base_lr
    lr_decay: float = mlp.TrainingSchedule.decay
    batch_size: int = mlp.TrainingSchedule.batch_size
    patience: int = mlp.TrainingSchedule.patience

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}, expected one of {SYSTEMS}")
        # written so that NaN fails too
        if not all(r >= 0 for r in self.ratios):
            raise ConfigError(f"split ratios must not be negative or NaN, got {self.ratios}")
        total = self.train_ratio + self.dev_ratio + self.test_ratio
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {total}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # written so that NaN fails too
        if not 0 < self.variance_target <= 1:
            raise ConfigError(f"variance_target must be in (0, 1], got {self.variance_target}")
        try:
            self.schedule
        except ArgumentError as e:
            raise ConfigError(str(e)) from e

    @property
    def schedule(self) -> mlp.TrainingSchedule:
        """The SGD schedule of the [training] section, checked at construction."""
        return mlp.TrainingSchedule(
            max_epochs=self.max_epochs,
            warmup_epochs=self.warmup_epochs,
            base_lr=self.base_lr,
            decay=self.lr_decay,
            batch_size=self.batch_size,
            patience=self.patience,
            seed=self.seed,
        )

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.dev_ratio, self.test_ratio)

    # The system's input recipe: these two properties are the only code that
    # reads meaning into a system name.
    @property
    def reads_questions(self) -> bool:
        """Whether the linguistic input answers the question set; ult2wav's
        holds only the 4 positional features."""
        return self.system != "ult2wav"

    @property
    def reads_ultrasound(self) -> bool:
        """Whether the input appends the eigentongue PCA coefficients."""
        return self.system != "txt2wav"


# The config file's sections, in file order, and the fields each one holds;
# a field's key is its name less any "_ratio" suffix.
SECTIONS = {
    "data": ("ultrasound_dir", "label_dir", "acoustic_dir", "question_file"),
    "experiment": ("speaker", "system", "seed"),
    "split": ("train_ratio", "dev_ratio", "test_ratio"),
    "ultrasound": ("resize_rows", "resize_cols"),
    "pca": ("variance_target", "max_components"),
    "network": ("hidden_layers", "hidden_units"),
    "training": ("max_epochs", "warmup_epochs", "base_lr", "lr_decay", "batch_size", "patience"),
}

PATH_FIELDS = SECTIONS["data"]

_CASTS = get_type_hints(ExperimentConfig)


def read_config(path: Path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from e
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        fields = {field.removesuffix("_ratio"): field for field in SECTIONS[section]}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field = fields[key]
            try:
                values[field] = _CASTS[field](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from e
    missing = [k for k in PATH_FIELDS if k not in values]
    if missing:
        raise ConfigError(f"config misses required data paths: {missing}")
    base = path.resolve().parent
    for field in PATH_FIELDS:
        p = values[field]
        values[field] = p if p.is_absolute() else (base / p).resolve()
    try:
        return ExperimentConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def write_config(cfg: ExperimentConfig, path: Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, fields in SECTIONS.items():
        parser.add_section(section)
        for field in fields:
            value = getattr(cfg, field)
            key = field.removesuffix("_ratio")
            parser.set(section, key, str(Path(value).absolute() if field in PATH_FIELDS else value))
    with open(path, "w") as fh:
        parser.write(fh)
