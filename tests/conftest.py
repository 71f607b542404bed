import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# reproducible property tests: the same examples on every run, and no
# per-example deadline (wall times swing widely on a loaded host)
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
