"""dysaug: synthetic dysarthric speech and ASR evaluation tools.

Speed/tempo perturbation of healthy recordings at named severity levels,
manifest-driven batch generation, WER/CER scoring with error breakdown,
and confusion-weighted dictionary text correction.

`import dysaug` loads no submodule: each exported name imports its
module on first use (PEP 562).  `scoring` and `manifest` never load
numpy, so scoring and manifest handling run without it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the names it exports; `__all__` is every name here
_SUBMODULES = {
    "audio_io": ("UnsupportedCodecError", "Waveform", "WavFormatError", "read_wav",
                 "resample", "resample_sequence", "write_wav"),
    "correction": ("ConfusionMatrix", "Dictionary", "build_confusion", "correct_sentence",
                   "correct_word", "load_dictionary", "profile", "weighted_jaccard"),
    "manifest": ("SEVERITIES", "AugmentRecord", "ManifestEntry", "assign_severities",
                 "read_manifest", "split_by_gender", "write_records"),
    "pipeline": ("BatchResult", "PerturbationParams", "params_for", "run_batch"),
    "scoring": ("Alignment", "ScoreReport", "align", "normalize_arabic", "score"),
    "speed": ("SPEED_FACTOR_RANGE", "perturb_speed"),
    "tempo": ("TEMPO_FACTOR_RANGE", "WsolaConfig", "perturb_tempo", "pertubate_signal"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # only names not yet in the package globals get here; the first use of
    # an export imports its module and binds the name, so later uses are
    # plain attribute reads.  Anything else, a submodule not yet imported
    # included, is an AttributeError, which lets `from dysaug import scoring`
    # import it.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
