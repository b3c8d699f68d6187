"""The recurrence gallery script renders the same three bitmaps, byte for byte."""
import hashlib
import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "recurrence_gallery.py"

# SHA-256 of each bitmap at --n 60, recorded before the odometer midpoints
# were read with one node_bounds call
_GOLDEN_GALLERY = {
    "three_cycle.pgm": "2d6d5ec33d4e90b4560617f13cc9faf2ebdf8af6441e405202041dd061445ad4",
    "oscillating.pgm": "0802c99adce162d3d66ff8841e8e57888d1c0396c153d75ef1ef16169128cf37",
    "cantor_odometer.pgm": "be01c969e4262a17ee81152c34579caf52913fd7d0fce692ca484205272da340",
}


def test_gallery_bitmaps_are_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--n", "60", "--outdir", str(tmp_path)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert "wrote 3 bitmaps" in capsys.readouterr().out
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == _GOLDEN_GALLERY
