import sys
from pathlib import Path

# The benchmark's modules are plain files next to run.py.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
