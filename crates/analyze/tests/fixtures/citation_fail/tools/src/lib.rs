// Outside the checked tree: DESIGN.md §8.
