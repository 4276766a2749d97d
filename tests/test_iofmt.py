import os
import stat

import pytest

from perevo import iofmt


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_leaves_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        iofmt.atomic_write(str(tmp_path / "out.txt"), "1\n")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("1\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode) == mode
    assert (tmp_path / "out.txt").read_bytes() == b"1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def test_atomic_write_steps_over_a_temp_file_it_did_not_make(tmp_path):
    stale = tmp_path / f".tmp-{os.getpid()}-0"
    stale.write_text("stale")
    iofmt.write_json(str(tmp_path / "r.json"), {"q": 2.0})
    assert (tmp_path / "r.json").read_text() == '{\n  "q": 2.0\n}\n'
    assert stale.read_text() == "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "r.json"]
