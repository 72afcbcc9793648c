import re
from pathlib import Path

import numpy as np
import pytest

from semifem.analysis import UNIT_SQUARE_SINE, run_convergence_study
from semifem.cli import CONFIG_KEYS, main
from semifem.femfunction import read_function
from semifem.mesh import preset_polygon, read_mesh, triangulate_convex_polygon
from semifem.nonlinearity import PowerLaw
from semifem.solver import solve_semilinear

KINK_CONFIG = """
# kink problem on the worst-angle pentagon
domain = pentagon
level = 3
nonlinearity = power_law
scale = 50.0
exponent = 0.3333333333333333
shift = -1.0
rhs = constant 1
"""

# Finite data inside the documented ranges whose reaction overflows.
OVERFLOW_CONFIG = """
domain = unit-square
scale = 1e308
rhs = constant 1e5
"""

MANUFACTURED_CONFIG = """
domain = unit-square
levels = 2..5
exponent = 0.5
rhs = manufactured
reference = exact
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def strip_wall_time(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().splitlines())


class TestMeshCommand:
    def test_unit_square_level0(self, tmp_path, capsys):
        out = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--domain", "unit-square", "--level", "0",
                     "--output", out]) == 0
        printed = capsys.readouterr().out
        assert "nv=5" in printed and "nt=4" in printed
        mesh = read_mesh(out)
        assert mesh.num_vertices == 5

    def test_level1_has_sixteen_triangles(self, tmp_path, capsys):
        out = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--domain", "unit-square", "--level", "1",
                     "--output", out]) == 0
        assert "nt=16" in capsys.readouterr().out

    def test_concave_polygon_rejected(self, tmp_path, capsys):
        poly = write(tmp_path, "bad.poly",
                     "0 0\n2 0\n1 0.1\n2 2\n0 2\n")
        code = main(["mesh", "--domain", poly, "--level", "0",
                     "--output", str(tmp_path / "m.txt")])
        assert code == 2
        assert "vertex 2" in capsys.readouterr().err

    def test_polygon_file_read_as_polygon(self, tmp_path, capsys):
        # Its first two lines would read as the header `nv nt` = `2 0` and one
        # vertex of a mesh file with the right line count.
        poly = write(tmp_path, "tri.txt", "2 0\n0 2\n0 0\n")
        assert main(["mesh", "--domain", poly, "--level", "1",
                     "--output", str(tmp_path / "m.txt")]) == 0
        assert "nv=10 nt=12" in capsys.readouterr().out

    def test_polygon_file_with_comment_read_as_polygon(self, tmp_path, capsys):
        # The comment brings the line count to the 1 + 4 + 0 of a mesh
        # header `4 0`, and it has three fields, like a vertex line.
        poly = write(tmp_path, "sq.txt", "4 0\n# ccw square\n4 4\n0 4\n0 0\n")
        assert main(["mesh", "--domain", poly, "--level", "1",
                     "--output", str(tmp_path / "m.txt")]) == 0
        assert "nv=13 nt=16" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["mesh", "solve"])
    def test_non_finite_mesh_file_rejected(self, tmp_path, capsys, command):
        # A NaN coordinate was accepted: `mesh` printed h=nan, and `solve`
        # blamed the data for overflowing double precision.
        mesh_file = str(tmp_path / "bad.msh")
        assert main(["mesh", "--domain", "unit-square", "--level", "0",
                     "--output", mesh_file]) == 0
        lines = Path(mesh_file).read_text().splitlines()
        lines[2] = "nan 0 1"  # vertex 1
        Path(mesh_file).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "--domain", mesh_file, "--level", "1",
                     "--output", str(tmp_path / "out.txt")]) == 2
        assert "vertex 1 has a non-finite coordinate" in capsys.readouterr().err

    def test_round_trip_bit_for_bit(self, tmp_path, capsys):
        out = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--domain", "pentagon", "--level", "2",
                     "--output", out]) == 0
        reread = read_mesh(out)
        expected = triangulate_convex_polygon(preset_polygon("pentagon"))
        from semifem.mesh import refine_uniform
        expected = refine_uniform(refine_uniform(expected))
        np.testing.assert_array_equal(reread.vertices, expected.vertices)


class TestSolveCommand:
    def test_zero_problem_writes_zero_solution(self, tmp_path, capsys):
        cfg = write(tmp_path, "zero.cfg",
                    "domain = unit-square\nlevel = 1\nweight = 0\n"
                    "rhs = constant 0\n")
        out = str(tmp_path / "u.txt")
        assert main(["solve", "--config", cfg, "--output", out]) == 0
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        from semifem.mesh import refine_uniform
        mesh = refine_uniform(mesh)
        u = read_function(mesh, out)
        assert not np.any(u.coeffs)

    def test_kink_config_reports_residual(self, tmp_path, capsys):
        cfg = write(tmp_path, "kink.cfg", KINK_CONFIG)
        out = str(tmp_path / "u.txt")
        assert main(["solve", "--config", cfg, "--output", out]) == 0
        printed = capsys.readouterr().out
        residual = float(printed.split("final_residual=")[1].split()[0])
        assert residual <= 1e-10

    def test_prints_cg_iterations_of_the_solve(self, tmp_path, capsys, monkeypatch):
        solves = []

        def recorded(*args, **kwargs):
            solves.append(solve_semilinear(*args, **kwargs))
            return solves[-1]
        monkeypatch.setattr("semifem.cli.solve_semilinear", recorded)
        cfg = write(tmp_path, "kink.cfg", KINK_CONFIG)
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 0
        printed = capsys.readouterr().out
        (_, stats), = solves
        assert f" cg_iterations={stats.total_cg_iterations} final_residual=" in printed
        assert stats.total_cg_iterations > 0

    def test_solve_on_mesh_file(self, tmp_path, capsys):
        mesh_file = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--domain", "unit-square", "--level", "2",
                     "--output", mesh_file]) == 0
        cfg = write(tmp_path, "lin.cfg", "rhs = constant 1\n")
        out = str(tmp_path / "u.txt")
        assert main(["solve", "--config", cfg, "--domain", mesh_file,
                     "--level", "0", "--output", out]) == 0
        reread = read_mesh(mesh_file)
        u = read_function(reread, out)
        assert u.coeffs.size == reread.num_vertices

    def test_newton_failure_reports_residual(self, tmp_path, capsys):
        cfg = write(tmp_path, "kink.cfg", KINK_CONFIG + "max_newton = 1\n")
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 1
        err = capsys.readouterr().err
        assert "solve failed: no convergence within 1 Newton iterations" in err
        assert "ndof=141 residual=" in err

    def test_missing_value_names_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "rhs = constant\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "rhs" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # A key the solver no longer has is rejected like any unknown one.
        for key in ("viscosity", "continuation_sigma0", "cg_maxit", "cg_tol", "slope_floor"):
            cfg = write(tmp_path, "bad.cfg", f"{key} = 7\n")
            assert main(["solve", "--config", cfg]) == 2
            assert key in capsys.readouterr().err

    def test_out_of_range_exponent_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "exponent = 1.5\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["residual_tol = nan",
                                         "scale = inf", "shift = nan",
                                         "weight = nan", "rhs = constant nan"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, setting):
        # A NaN passes a `<= 0` test: as a tolerance it never stops Newton,
        # and as problem data it fails only in assembly, with a traceback.
        cfg = write(tmp_path, "bad.cfg", KINK_CONFIG + setting + "\n")
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 2
        err = capsys.readouterr().err
        assert setting.split()[0] in err and "finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting", ["scale = 1e308", "rhs = constant 1e308"])
    def test_overflowing_data_fail_as_named_error(self, tmp_path, capsys, setting):
        # Finite but huge data overflow the norm of the frozen-reaction
        # start's right-hand side; the solve fails with NewtonError, named as
        # such, with no warning.
        cfg = write(tmp_path, "huge.cfg", KINK_CONFIG + setting + "\n")
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solve failed: frozen-reaction right-hand side norm is not finite")
        assert "overflow" in err

    def test_overflowing_reaction_fails_as_newton_error(self, tmp_path, capsys):
        # The frozen-reaction start reaches |u| of about 7e3, where the
        # reaction 1e308 * u overflows on the root mesh.
        cfg = write(tmp_path, "huge.cfg", OVERFLOW_CONFIG + "level = 2\n")
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solve failed: nonlinearity returned non-finite value at point")
        assert "overflow" in err

    @pytest.mark.filterwarnings("error")
    def test_huge_residual_tol_does_not_overflow(self, tmp_path, capsys):
        # The tolerance is compared with scaled norms, never divided by the
        # 1/sqrt(n) scale, so 1e308 stays finite and one step meets it.
        cfg = write(tmp_path, "loose.cfg", KINK_CONFIG + "residual_tol = 1e308\n")
        assert main(["solve", "--config", cfg, "--output", str(tmp_path / "u.txt")]) == 0
        assert "newton_iterations=1 " in capsys.readouterr().out

    def test_unserved_quad_degree_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "quad_degree = 6\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "degree >= 6" in capsys.readouterr().err

    def test_cut_m_applied(self, tmp_path, capsys):
        cfg = write(tmp_path, "cut.cfg", KINK_CONFIG + "cut_m = 2.5\nlevel = 2\n")
        out = str(tmp_path / "u.txt")
        assert main(["solve", "--config", cfg, "--output", out]) == 0
        residual = float(capsys.readouterr().out
                         .split("final_residual=")[1].split()[0])
        assert residual <= 1e-10


class TestStudyCommand:
    def test_manufactured_structure(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg", MANUFACTURED_CONFIG)
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--output", out]) == 0
        lines = open(out, encoding="utf-8").read().strip().splitlines()
        assert len(lines) == 5  # header + 4 data rows
        assert lines[1].split(",")[6] == ""
        for row in lines[2:]:
            assert row.split(",")[6] != ""

    def test_single_level_empty_eoc(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg",
                    MANUFACTURED_CONFIG.replace("2..5", "3..3"))
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--output", out]) == 0
        lines = open(out, encoding="utf-8").read().strip().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[6] == fields[7] == fields[8] == fields[9] == ""

    def test_prints_the_reference_solve(self, tmp_path, capsys):
        # Levels 1..2 against a level-4 reference: solved from the level-2
        # solution through level 3. An exact reference prints no such line.
        cfg = write(tmp_path, "study.cfg", KINK_CONFIG + "levels = 1..2\n")
        assert main(["study", "--config", cfg, "--output", str(tmp_path / "s.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = lines[2]
        assert re.fullmatch(r"reference_solve levels=3,4 newton_iterations=\d+,\d+ "
                            r"cg_iterations=\d+,\d+ final_residual=\S+", line), line
        assert float(line.rsplit("=", 1)[1]) <= 1e-10
        # Then where each level's max error sits on the reference mesh.
        for level, line in zip((1, 2), lines[3:5]):
            assert re.fullmatch(rf"level={level} err_linf=\S+ at x=\S+ y=\S+", line), line
        cfg = write(tmp_path, "exact.cfg", MANUFACTURED_CONFIG.replace("2..5", "2..3"))
        assert main(["study", "--config", cfg, "--output", str(tmp_path / "e.csv")]) == 0
        out = capsys.readouterr().out
        assert "reference_solve" not in out and " at x=" not in out

    def test_exact_reference_requires_manufactured(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg",
                    "rhs = constant 1\nreference = exact\nlevels = 2..3\n")
        assert main(["study", "--config", cfg]) == 2
        assert "manufactured" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["reference = fine+1", "levels = -1..2"])
    def test_unservable_levels_rejected(self, tmp_path, capsys, setting):
        cfg = write(tmp_path, "study.cfg", KINK_CONFIG + setting + "\n")
        assert main(["study", "--config", cfg, "--output", str(tmp_path / "s.csv")]) == 2
        assert setting.split()[0] in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg",
                    MANUFACTURED_CONFIG.replace("2..5", "2..4"))
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["study", "--config", cfg, "--output", out1]) == 0
        assert main(["study", "--config", cfg, "--output", out2]) == 0
        a = strip_wall_time(open(out1, encoding="utf-8").read())
        b = strip_wall_time(open(out2, encoding="utf-8").read())
        assert a == b

    def test_manufactured_is_the_library_problem(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg",
                    MANUFACTURED_CONFIG.replace("2..5", "2..4"))
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--output", out]) == 0
        d = PowerLaw(scale=1.0, exponent=0.5)
        report = run_convergence_study("unit-square", d, UNIT_SQUARE_SINE.rhs(d),
                                       range(2, 5), exact=UNIT_SQUARE_SINE)
        assert strip_wall_time(open(out, encoding="utf-8").read()) == \
            strip_wall_time(report.csv_text())

    def test_failed_level_truncates_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "study.cfg",
                    KINK_CONFIG + "levels = 2..3\nmax_newton = 1\n")
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--output", out]) == 1
        lines = open(out, encoding="utf-8").read().strip().splitlines()
        assert len(lines) == 1  # header only: the first level already fails

    def test_overflowing_reaction_writes_partial_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "huge.cfg", OVERFLOW_CONFIG + "levels = 1..2\n")
        out = str(tmp_path / "study.csv")
        assert main(["study", "--config", cfg, "--output", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("study failed: level 1 failed: nonlinearity returned non-finite")
        assert f"wrote partial {out}" in err
        lines = open(out, encoding="utf-8").read().strip().splitlines()
        assert len(lines) == 1  # header only: the first level already fails

    def test_polygon_file_matches_preset(self, tmp_path, capsys):
        poly = write(tmp_path, "sq.txt", "0 0\n1 0\n1 1\n0 1\n")
        assert strip_wall_time(self.study(tmp_path, poly)) == \
            strip_wall_time(self.study(tmp_path, "unit-square"))

    def test_mesh_file_matches_preset(self, tmp_path, capsys):
        mesh_file = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--domain", "unit-square", "--level", "0",
                     "--output", mesh_file]) == 0
        assert strip_wall_time(self.study(tmp_path, mesh_file)) == \
            strip_wall_time(self.study(tmp_path, "unit-square"))

    @staticmethod
    def study(tmp_path, domain):
        out = str(tmp_path / "study.csv")
        assert main(["study", "--domain", domain, "--levels", "1..2", "--output", out]) == 0
        return open(out, encoding="utf-8").read()


@pytest.mark.parametrize("command, setting", [
    ("study", "levels = x..3"), ("study", "levels = 5..2"), ("study", "levels = 2-5"),
    ("study", "reference = fine+x"), ("study", "reference = coarse"),
    ("solve", "rhs = constant x"), ("solve", "rhs = manufactured 3"),
    ("solve", "rhs = manufactured"), ("solve", "rhs = spline"),
    ("solve", "nonlinearity = cubic"), ("solve", "scale = abc"), ("solve", "level = x"),
])
def test_malformed_value_names_its_key(tmp_path, capsys, command, setting):
    # KINK_CONFIG's domain is the pentagon, where `manufactured` does not apply.
    cfg = write(tmp_path, "bad.cfg", KINK_CONFIG + setting + "\n")
    assert main([command, "--config", cfg, "--output", str(tmp_path / "out.txt")]) == 2
    assert f"config key '{setting.split()[0]}'" in capsys.readouterr().err


def test_readme_config_table_matches_keys():
    # Each row of README's "Config reference" table names keys as `key`
    # followed by its default in parentheses, `(`default`)`, or a word.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config reference", 1)[1].split("\n\n")[2]
    listed = dict(re.findall(r"`(\w+)` \(([^)]*)\)",
                             "\n".join(row.split(" | ")[0] for row in table.splitlines())))
    assert sorted(listed) == sorted(CONFIG_KEYS)
    for key, (default, _) in CONFIG_KEYS.items():
        if default is not None:
            assert listed[key] == f"`{default}`", key


def test_readme_command_list_matches_cli(capsys):
    # README's "Command line" block runs each subcommand once, in the order
    # of the `{mesh,...}` choices that `semifem --help` prints.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines()]
    assert main(["--help"]) == 0
    choices = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == choices


def test_usage_error_exit_code(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv, message", [
    (["validate"], "invalid choice: 'validate'"),
    (["study", "--level", "3"], "unrecognized arguments: --level 3"),
])
def test_unknown_command_or_flag_rejected(capsys, argv, message):
    # `study` takes `--levels` only; `--level` is not read as its prefix.
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mesh", "solve", "study"])
def test_unreadable_domain_rejected(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.txt")
    assert main([command, "--domain", missing, "--output", str(tmp_path / "out.txt")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mesh", "solve"])
def test_negative_level_rejected(tmp_path, capsys, command):
    assert main([command, "--level", "-2", "--output", str(tmp_path / "out.txt")]) == 2
    assert "level" in capsys.readouterr().err
