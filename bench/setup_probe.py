"""One fresh-interpreter start: import kickecho.cli and resolve one config.

Usage: python3 bench/setup_probe.py SRC_DIR KIND SETTINGS_JSON

run.py times this whole process; its median over several starts is the
benchmark's setup_s.
"""

import json
import sys


def main(src: str, kind: str, settings: str) -> None:
    sys.path.insert(0, src)
    import kickecho.cli  # noqa: F401
    from kickecho.config import resolve

    resolve(kind, {key: str(value) for key, value in json.loads(settings).items()})


if __name__ == "__main__":
    main(*sys.argv[1:])
