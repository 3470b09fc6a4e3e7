#!/usr/bin/env python3
"""Fail if a perfbench result's peak_rss_mb is above a ceiling.

Usage: check_peak_rss.py RESULT_FILE CEILING_MB

RESULT_FILE is the stdout of `perfbench/run.py --workload W`; its last
line is the JSON result. Exits 1 (with a message) when the workload's
peak RSS exceeds CEILING_MB, 2 when the result cannot be read.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    path, ceiling = argv[1], float(argv[2])
    try:
        with open(path) as f:
            result = json.loads(f.read().splitlines()[-1])
        rss = result["metrics"]["peak_rss_mb"]["value"]
    except (OSError, IndexError, KeyError, ValueError) as e:
        print(f"check_peak_rss: {path}: no peak_rss_mb ({e})",
              file=sys.stderr)
        return 2
    verdict = "OK" if rss <= ceiling else "ABOVE CEILING"
    print(f"check_peak_rss: {path}: peak_rss_mb {rss:.1f} "
          f"(ceiling {ceiling:g}) {verdict}")
    return 0 if rss <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
