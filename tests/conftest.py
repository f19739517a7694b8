import os
from pathlib import Path

import pytest

from tdsynth.synth import SynthesisConfig, config_digest, generate
from tdsynth.templates import bundled_template_dir, load_bundle


@pytest.fixture(scope="session")
def template_dir():
    # point TDSYNTH_TEMPLATES at a directory with mini-tn/ and mini-dn/
    # bundles to run the template-agnostic parts of the suite against
    # full-size systems
    override = os.environ.get("TDSYNTH_TEMPLATES")
    return Path(override) if override else bundled_template_dir()


@pytest.fixture(scope="session")
def tn_bundle(template_dir):
    return load_bundle(template_dir / "mini-tn")


@pytest.fixture(scope="session")
def dn_bundle(template_dir):
    return load_bundle(template_dir / "mini-dn")


_GENERATE_CACHE: dict[str, object] = {}


@pytest.fixture(scope="session")
def run_pipeline(template_dir):
    """Session-cached generate() so the sweep cases are built once."""

    def run(cfg: SynthesisConfig):
        key = config_digest(cfg)
        if key not in _GENERATE_CACHE:
            _GENERATE_CACHE[key] = generate(
                template_dir / "mini-tn", template_dir / "mini-dn", cfg
            )
        return _GENERATE_CACHE[key]

    return run
