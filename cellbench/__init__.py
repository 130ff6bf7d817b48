"""cellbench: the repository's end-to-end benchmark (see DESIGN.md)."""
