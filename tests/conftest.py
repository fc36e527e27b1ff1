import os
import sys

# Allow running the tests from a checkout without installing the package;
# the package is pure Python, so nothing needs building first.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
