"""The package's lazy exports: `import dysaug` loads no submodule, and each
exported name imports its module on first use."""

import importlib
import subprocess
import sys

import pytest

import dysaug


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_export_is_its_submodules_object():
    assert set(dysaug._EXPORTS) == set(dysaug.__all__)
    for name in dysaug.__all__:
        module = importlib.import_module(f"dysaug.{dysaug._EXPORTS[name]}")
        assert getattr(dysaug, name) is getattr(module, name), name


def test_dir_and_star_import_cover_all():
    assert set(dysaug.__all__) <= set(dir(dysaug))
    namespace = {}
    exec("from dysaug import *", namespace)
    for name in dysaug.__all__:
        assert namespace[name] is getattr(dysaug, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        dysaug.not_an_export


def test_import_loads_no_submodule_until_a_name_is_used():
    lines = run_python(
        "import sys, dysaug\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('dysaug.'))\n"
        "print(loaded(), 'score' in vars(dysaug))\n"
        "dysaug.score\n"
        "print(loaded(), 'score' in vars(dysaug))\n"
        "from dysaug import tempo\n"
        "print(tempo.__name__)\n"
    )
    # the first use binds the name in the package, so later uses are plain reads
    assert lines == [
        "[] False",
        "['dysaug.scoring'] True",
        "dysaug.tempo",
    ]


def test_first_parallel_batch_loads_the_kernels_before_the_pool(tmp_path):
    # pool workers fork from this process, so it must hold the kernels (and
    # numpy) already, or every worker would import them itself
    from dysaug import Waveform, write_wav

    manifest = tmp_path / "m.jsonl"
    lines = []
    for i in range(2):
        write_wav(Waveform([0.1] * 4000, 16000), tmp_path / f"u{i}.wav")
        lines.append(f'{{"id": "u{i}", "audio": "{tmp_path / f"u{i}.wav"}"}}\n')
    manifest.write_text("".join(lines), encoding="utf-8")
    out = run_python(
        "import sys\n"
        "import concurrent.futures, concurrent.futures.process\n"
        "import dysaug\n"
        "seen = []\n"
        "class Pool(concurrent.futures.process.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('dysaug.tempo' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"entries = dysaug.read_manifest({str(manifest)!r})\n"
        "print('dysaug.tempo' in sys.modules)\n"
        f"result = dysaug.run_batch(entries, ['S1', 'S2'], 1, 0, {str(tmp_path / 'out')!r},"
        " jobs=2)\n"
        "print(seen, len(result.records), 'dysaug.tempo' in sys.modules)\n"
    )
    assert out == ["False", "[True] 2 True"]
