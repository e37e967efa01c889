import json

import pytest

from c4run.bundle import CompositeBundle, load_bundle, write_test_bundle
from c4run.errors import UsageError


def _write(tmp_path, mutate=None):
    bundle = write_test_bundle(tmp_path / "b")
    if mutate is not None:
        cfg = json.loads((bundle / "config.json").read_text())
        mutate(cfg, bundle)
        (bundle / "config.json").write_text(json.dumps(cfg))
    return bundle


def test_load_valid_bundle(tmp_path):
    bundle = load_bundle(_write(tmp_path))
    assert bundle.process_args[0] == "bin/c4-anchor"
    assert bundle.c4.backend_id == "sim"
    assert "hello" in bundle.c4.stage_table
    assert bundle.c4.c_untrusted == 252
    assert bundle.rootfs.is_dir()


def test_bundles_share_no_env_dict(tmp_path):
    first, second = CompositeBundle(tmp_path, ["x"]), CompositeBundle(tmp_path, ["x"])
    first.process_env["K"] = "V"
    assert second.process_env == {}


def test_missing_config_and_rootfs(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(UsageError):
        load_bundle(empty)
    (empty / "config.json").write_text("{}")
    with pytest.raises(UsageError):
        load_bundle(empty)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c, b: c.pop("process"), "process"),
        (lambda c, b: c["process"].update(args=[]), "args"),
        (lambda c, b: c["process"].update(args=["/bin/sh"]), "resolve"),
        (lambda c, b: c["process"].update(args=["../escape"]), "resolve"),
        (lambda c, b: c["process"].update(args=["bin/ghost"]), "resolve"),
        (lambda c, b: c["process"].update(env={"A": 1}), "env"),
        (lambda c, b: c.pop("c4"), "c4"),
        (lambda c, b: c["c4"].update(stage_table={}), "stage_table"),
        (lambda c, b: c["c4"].update(stage_table={"x": "notamap"}), "stage_table"),
        (lambda c, b: c["c4"].update(mystery=True), "unknown"),
        (lambda c, b: c["c4"].update(c_untrusted=999), "c_untrusted"),
        (lambda c, b: c["c4"].update(require_conf="yes"), "require_conf"),
        (lambda c, b: c["c4"].pop("backend_id"), "backend_id"),
    ],
)
def test_invalid_bundles_rejected(tmp_path, mutate, message):
    bundle = _write(tmp_path, mutate)
    with pytest.raises(UsageError, match=message):
        load_bundle(bundle)


def test_unparseable_config(tmp_path):
    bundle = _write(tmp_path)
    (bundle / "config.json").write_bytes(b"{broken")
    with pytest.raises(UsageError):
        load_bundle(bundle)
