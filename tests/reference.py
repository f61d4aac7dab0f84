"""Per-row references for the stacked connection readers: each colouring is
labelled alone, by label_components and common_labels on the unstacked
graph, and its clusters joining two terminals are counted."""

from tessperc.percolation import common_labels, label_components


def joins(graph, active, a, b) -> int:
    """The number of clusters of graph's active cells (one colouring's mask)
    that hold cells of both terminals a and b."""
    labels = label_components(active, graph.edges)
    return len(common_labels(labels, graph.terminals[a], graph.terminals[b]))


def crossed(graph, black, query) -> bool:
    """Whether the black mask has query's crossing on graph, its rect graph."""
    active = black if query.color == "black" else ~black
    return joins(graph, active, *("LR" if query.direction == "horizontal" else "BT")) > 0


def crossing_rows(queries, ps, graphs, uniforms, reps) -> list:
    """estimators._crossing_rep, row by row and p by p."""
    return [(rep, tuple(tuple(int(crossed(graph, row < p, query)) for p in ps)
                        for query, graph in zip(queries, graphs)))
            for rep, row in zip(reps, uniforms)]


def joins_rows(ps, pairs, graph, uniforms) -> list:
    """estimators._joins_rep, row by row and p by p."""
    return [tuple(tuple(joins(graph, row < p, a, b) for a, b in pairs) for p in ps)
            for row in uniforms]
