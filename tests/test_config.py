import pytest

from pdirichlet.config import (
    RunConfig,
    config_hash,
    config_text,
    parse_config,
    parse_config_text,
)
from pdirichlet.cli import run
from pdirichlet.errors import ConfigError


def test_defaults_applied():
    c = parse_config_text("", subcommand="sample")
    assert c == RunConfig(subcommand="sample")
    assert c.p == 3.0 and c.T == 4096 and c.lam == 1.0e-6 and c.seed == 1


def test_round_trip_through_text():
    c = parse_config_text(
        "density=rho2\nn=2048\nh=0.07\nlambda=1e-4\nsvg=true\n",
        subcommand="study-density",
    )
    again = parse_config_text(config_text(c))
    assert again == c
    assert config_hash(again) == config_hash(c)


def test_comments_and_blank_lines_ignored():
    text = "# full line comment\n\nn=99  # trailing comment\n"
    c = parse_config_text(text, subcommand="sample")
    assert c.n == 99


def test_unknown_key_named_with_line():
    with pytest.raises(ConfigError, match="line 2: unknown config key 'bogus'"):
        parse_config_text("n=10\nbogus=1\n", subcommand="sample")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just a line\n", subcommand="sample")


def test_bad_value_type_names_key():
    with pytest.raises(ConfigError, match="config key 'n'"):
        parse_config_text("n=many\n", subcommand="sample")
    with pytest.raises(ConfigError, match="config key 'n'"):
        parse_config_text("n=2.5\n", subcommand="sample")


def test_continuum_rejects_p_below_two():
    with pytest.raises(ConfigError, match="p > d = 2 required"):
        parse_config_text("p=1.5\n", subcommand="solve-continuum")
    with pytest.raises(ConfigError, match="p > d = 2 required"):
        parse_config_text("p=1.5\n", subcommand="study-minimizers")
    # the graph route accepts any p >= 1
    c = parse_config_text("p=1.5\n", subcommand="solve-discrete")
    assert c.p == 1.5
    # p = d = 2 is rejected too: the continuum pipelines pin isolated points
    for sub in ("solve-continuum", "study-minimizers"):
        with pytest.raises(ConfigError, match="p > d = 2 required"):
            parse_config_text("p=2\n", subcommand=sub)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["p", "h", "lambda", "epsilon", "tol"])
def test_non_finite_reals_rejected(key, value, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"config key '{key}' = {value} rejected"):
        parse_config_text(f"{key}={value}\n", subcommand="solve-discrete")
    for sub in ("solve-discrete", "solve-continuum"):
        assert run([sub, f"--{key}={value}", "--out", str(tmp_path)]) == 2
        assert f"error[config]: config key '{key}'" in capsys.readouterr().err


def test_mesh_capped_for_memory(tmp_path, capsys):
    # 16 bytes per mesh point for the points alone: 6.4 GB at mesh 20000
    assert parse_config_text("mesh=1536\n", subcommand="density").mesh == 1536
    for sub in ("density", "study-density", "study-minimizers"):
        assert run([sub, "--mesh", "20000", "--out", str(tmp_path)]) == 2
        assert "error[config]: config key 'mesh' = 20000 out of range" in capsys.readouterr().err


def test_negative_penalty_weight_rejected():
    with pytest.raises(ConfigError, match="'lambda' = -1.0 rejected"):
        parse_config_text("lambda=-1\n", subcommand="sample")


def test_T_must_be_a_perfect_square():
    assert parse_config_text("T=100\n", subcommand="sample").T == 100
    with pytest.raises(ConfigError, match="'T'"):
        parse_config_text("T=50\n", subcommand="sample")
    with pytest.raises(ConfigError, match="'T'"):
        parse_config_text("T=9\n", subcommand="sample")  # 3x3 lattice is too coarse


def test_epsilon_and_k_are_mutually_exclusive():
    assert parse_config_text("epsilon=0.1\n", subcommand="solve-discrete").epsilon == 0.1
    assert parse_config_text("k=8\n", subcommand="solve-discrete").k == 8
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config_text("epsilon=0.1\nk=8\n", subcommand="solve-discrete")


def test_overrides_win_over_text():
    c = parse_config_text("n=10\nh=0.5\n", subcommand="sample", overrides={"n": "20"})
    assert c.n == 20 and c.h == 0.5
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("", subcommand="sample", overrides={"nope": 1})


def test_none_override_means_unset():
    c = parse_config_text("n=10\n", subcommand="sample", overrides={"n": None})
    assert c.n == 10


def test_subcommand_required():
    with pytest.raises(ConfigError, match="no subcommand"):
        parse_config_text("n=10\n")


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("density=rho3\nseed=7\n")
    c = parse_config(path, subcommand="density")
    assert c.density == "rho3" and c.seed == 7


def test_config_hash_distinguishes_configs():
    a = parse_config_text("", subcommand="sample")
    b = parse_config_text("seed=2\n", subcommand="sample")
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64


def test_out_of_range_values_name_their_key():
    for text, key in (
        ("n=0\n", "n"),
        ("h=0\n", "h"),
        ("tol=0\n", "tol"),
        ("lambda=0\n", "lambda"),
        ("seed=-1\n", "seed"),
        ("mesh=3\n", "mesh"),
        ("mesh=1537\n", "mesh"),
        ("points_per_patch=3\n", "points_per_patch"),
        ("points_per_patch=41\n", "points_per_patch"),
        ("epsilon=0\n", "epsilon"),
        ("k=0\n", "k"),
        ("density=rho9\n", "density"),
    ):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config_text(text, subcommand="sample")


def test_sample_count_and_knots_capped_for_memory(tmp_path, capsys):
    # studies draw 4n points, so their n is capped at a quarter of the cloud cap
    assert parse_config_text("n=1048576\n", subcommand="sample").n == 2**20
    assert parse_config_text("n=262144\n", subcommand="study-density").n == 2**18
    assert parse_config_text("T=65536\n", subcommand="density").T == 2**16
    for text, sub, key in (("n=1048577\n", "sample", "n"), ("n=262145\n", "study-density", "n"),
                           ("T=66049\n", "density", "T")):
        with pytest.raises(ConfigError, match=f"config key '{key}' = \\d+ out of range"):
            parse_config_text(text, subcommand=sub)
    assert run(["sample", "--n", "100000000", "--out", str(tmp_path)]) == 2
    assert "error[config]: config key 'n' = 100000000" in capsys.readouterr().err


def test_graph_size_capped_for_memory(tmp_path, capsys):
    # p = 3 at n = 131072 has about 11.7M edges (12M are allowed) and is
    # accepted, as are 65536 points and 1048576 points at k = 11
    assert parse_config_text("n=131072\n", subcommand="solve-discrete").n == 131072
    assert parse_config_text("n=65536\n", subcommand="solve-discrete").n == 65536
    assert parse_config_text("n=1048576\nk=11\n", subcommand="solve-discrete").k == 11
    # the study's discrete route runs at 4n = 131072 on the default scale
    assert parse_config_text("n=32768\n", subcommand="study-minimizers").n == 32768
    for text, sub, key in (
        ("n=140000\n", "solve-discrete", "'p' = 3.0"),
        ("n=8192\nepsilon=2\n", "solve-discrete", "'epsilon' = 2.0"),
        ("n=1048576\nk=12\n", "solve-discrete", "'k' = 12"),
        ("n=35000\n", "study-minimizers", "'p' = 3.0"),
    ):
        with pytest.raises(ConfigError, match=f"'n' = \\d+, {key} rejected for {sub}"):
            parse_config_text(text, subcommand=sub)
    # a sampling subcommand builds no graph
    assert parse_config_text("n=131072\n", subcommand="sample").n == 131072
    assert run(["solve-discrete", "--n", "1000000", "--out", str(tmp_path)]) == 2
    assert "edges; at most 1.2e+07 fit in memory" in capsys.readouterr().err
