"""Run the command-line front end: python -m sawtooth_echo <command> ..."""

from .cli import main_entry

main_entry()
