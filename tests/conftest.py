def pytest_collection_modifyitems(items):
    """Run the acceptance module after the unit suites.

    The unit suites and the golden outputs take under a minute and the
    acceptance criteria about ten, so a broken unit shows up first. The
    sort is stable: within each group the collection order is kept.
    """
    items.sort(key=lambda item: item.get_closest_marker("acceptance") is not None)
