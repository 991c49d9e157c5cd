import numpy as np
import pytest

from oflc.cli import main

TINY = """
[machine]
R = 0.5
L_d = 3e-3
L_q = 5e-3
psi = 0.1
p = 4

[scenario]
duration = 0.005
dt_plant = 1e-5
dt_ctrl = 1e-4

[torque]
kind = constant
value = 3.0

[speed]
kind = constant
value = 100.0
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_simulate_happy_path(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main(["simulate", "--scenario", str(tiny_cfg), "--controller", "oflc", "--out", str(out)])
    assert rc == 0
    trace = (out / "oflc_trace.csv").read_text().splitlines()
    assert trace[0].startswith("# flags bitfield")
    assert trace[1].startswith("t,i_d,i_q,v_d,v_q,")
    assert len(trace) == 2 + 50  # 0.005 / 1e-4 ticks
    summary = (out / "oflc_summary.txt").read_text()
    assert "cost_integral_A2s:" in summary
    assert "rms_torque_error_Nm:" in summary
    assert "cost_integral_A2s:" in capsys.readouterr().out


def test_trace_rows_are_consistent(tiny_cfg, tmp_path):
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(tiny_cfg), "--out", str(out)])
    lines = (out / "oflc_trace.csv").read_text().splitlines()[2:]
    header = (out / "oflc_trace.csv").read_text().splitlines()[1].split(",")
    for line in lines:
        vals = dict(zip(header, line.split(",")))
        v = np.hypot(float(vals["v_d"]), float(vals["v_q"]))
        assert v <= 48.0 * (1.0 + 1e-9)
        assert int(vals["flags"]) >= 0


def test_decimation(tiny_cfg, tmp_path):
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(tiny_cfg), "--out", str(out), "--decimate", "10"])
    trace = (out / "oflc_trace.csv").read_text().splitlines()
    assert len(trace) == 2 + 5


def test_compare_writes_summary(tiny_cfg, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(tiny_cfg), "--out", str(out)])
    assert rc == 0
    summary = (out / "compare_summary.txt").read_text()
    assert "oflc_cost_integral_A2s:" in summary
    assert "flc_z0_cost_integral_A2s:" in summary
    assert "oflc_over_flc_z0_energy_ratio:" in summary
    assert (out / "oflc_trace.csv").exists() and (out / "flc_z0_trace.csv").exists()


def test_out_dir_env_default(tiny_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("OFLC_OUT_DIR", str(env_dir))
    rc = main(["simulate", "--scenario", str(tiny_cfg)])
    assert rc == 0
    assert (env_dir / "oflc_trace.csv").exists()


def test_unknown_flag_exits_1(tiny_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(tiny_cfg), "--bogus"])
    assert exc.value.code == 1


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY.replace("dt_plant = 1e-5", "dt_plant = 1.0"))
    rc = main(["simulate", "--scenario", str(bad)])
    assert rc == 1
    assert "dt_plant" in capsys.readouterr().err

    good = tmp_path / "good.cfg"
    good.write_text(TINY)
    for flag, value, message in (("--alpha-z", "2", "controller.alpha_z: must be in (0, 1]"),
                                 ("--kp", "-1", "controller.kp"), ("--ki", "-1", "controller.ki")):
        rc = main(["simulate", "--scenario", str(good), "--out", str(tmp_path), flag, value])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(tmp_path / "nope.cfg")])
    assert exc.value.code == 1


def test_override_flags(tiny_cfg, tmp_path):
    out = tmp_path / "ovr"
    rc = main(["simulate", "--scenario", str(tiny_cfg), "--out", str(out),
               "--v-max", "24", "--kp", "0", "--ki", "0", "--alpha-z", "0.5"])
    assert rc == 0
    lines = (out / "oflc_trace.csv").read_text().splitlines()[2:]
    header = (out / "oflc_trace.csv").read_text().splitlines()[1].split(",")
    for line in lines:
        vals = dict(zip(header, line.split(",")))
        assert np.hypot(float(vals["v_d"]), float(vals["v_q"])) <= 24.0 * (1.0 + 1e-9)


def test_selftest(capsys):
    rc = main(["selftest"])
    assert rc == 0
    assert "selftest OK" in capsys.readouterr().out
