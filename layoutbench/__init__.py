"""The repository benchmark: compile + simulate and warm serve.

Run ``python3 layoutbench/run.py --help``; see ``README.md`` here.
"""
