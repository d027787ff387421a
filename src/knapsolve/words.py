"""Words over generator alphabets.

A word is a tuple of letters.  A letter is an identifier, with the formal
inverse written as a trailing apostrophe: the inverse of "a" is "a'" and
the inverse of "a'" is "a" again.
"""


def invert_letter(letter):
    if letter.endswith("'"):
        return letter[:-1]
    return letter + "'"


def invert_word(word):
    return tuple(invert_letter(a) for a in reversed(word))


def components(nodes, links):
    """The classes of nodes joined by links (pairs of nodes).

    Each class lists its nodes in the order of nodes, and the classes
    come in the order of their first node.
    """
    root = {v: v for v in nodes}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for v, w in links:
        root[find(v)] = find(w)
    classes = {}
    for v in root:
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())
