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
