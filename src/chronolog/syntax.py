"""DatalogMTL abstract syntax, parsing, printing, normal form, grounding.

Concrete grammar (one statement per ``.``; ``%`` starts a comment):

    rule      :=  [ body ] "->" head
    body      :=  literal { "," literal }
    literal   :=  unary [ BINARY interval unary ]
    unary     :=  UNARY interval unary
               |  "top" | "bottom" | atom | "(" literal ")"
    head      :=  "top" | atom
               |  BOX interval head
    atom      :=  IDENT [ "(" term { "," term } ")" ]
    interval  :=  ("[" | "(") endpoint "," endpoint ("]" | ")")

Each temporal operator is defined once, by its class below, which states
its keyword, and ``OPERATORS`` maps each keyword to its class. A unary
operator's class also states its meaning for both reasoners: ``truth``
maps its operand's truth set to its own, ``reads`` gives the operand
points its truth on a region depends on, and ``affects``, its mirror, the
points whose truth an operand region can change. UNARY is
`boxminus`, `boxplus`, `diamondminus` or `diamondplus`; BOX is `boxminus`
or `boxplus`; BINARY is `since` or `until`.

Terms inside an atom are variables when they start with an uppercase
letter, otherwise constants (quoted constants are always constants, and
a constant spelled like a keyword must be quoted).
Duration endpoints take an optional unit suffix (d/h/m/s, days = 1);
mixing suffixed and bare numbers within one file is rejected.

Database files contain facts: ``atom "@" interval "."``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from collections.abc import Iterable, Iterator
from itertools import islice, product, repeat

from .errors import InputError, ParseError
from .intervals import Interval, IntervalSet, NEG_INF, POS_INF, Time, to_time

AUX_PREFIX = "_aux"

UNIT_SCALE = {
    "d": Fraction(1),
    "h": Fraction(1, 24),
    "m": Fraction(1, 1440),
    "s": Fraction(1, 86400),
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

def _init_args(cls: type) -> tuple[str, ...]:
    """The names of the arguments the class's ``__init__`` takes."""
    code = cls.__init__.__code__
    return code.co_varnames[1 : code.co_argcount]


def _value_repr(self) -> str:
    """``Class(field=value, ...)`` over the arguments the class's
    ``__init__`` takes, as a dataclass prints it."""
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _init_args(type(self)))
    return f"{type(self).__name__}({fields})"


class _Value:
    """A value whose fields are the arguments its class's ``__init__``
    takes, read once per class. It equals only a value of its own class
    with equal fields, hashes as the tuple of its fields, and prints as
    ``_value_repr`` does."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = _init_args(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    __repr__ = _value_repr


class _Term:
    """A named term, equal to a term of its own class with the same name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    __repr__ = _value_repr


class Constant(_Term):
    __slots__ = ()

    def __str__(self) -> str:
        if self.name not in KEYWORDS and re.fullmatch(r"[a-z][A-Za-z0-9_]*", self.name):
            return self.name
        return "'" + self.name.replace("\\", "\\\\").replace("'", "\\'") + "'"


class Variable(_Term):
    __slots__ = ()

    def __str__(self) -> str:
        return self.name


Term = Constant | Variable


class Literal:
    """Base class for body/head formulas."""

    __slots__ = ()


class _Nullary(Literal):
    """A literal without fields, equal to every literal of its own class."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Top(_Nullary):
    __slots__ = ()

    def __str__(self) -> str:
        return "top"


class Bottom(_Nullary):
    __slots__ = ()

    def __str__(self) -> str:
        return "bottom"


class Atom(Literal):
    """A predicate over terms. It hashes once, at construction, to
    ``hash((predicate, terms))``: the reasoner looks atoms up on every
    step, and that value keeps sets and dicts of atoms in a fixed order.

    Equality stays structural, but equal atoms of one parse (one call of
    ``parse_program`` or ``parse_database``) are one object, and so are
    equal atoms of one ``ground`` call: a dict or set lookup between
    them stops at identity and never reaches ``__eq__``."""

    __slots__ = ("predicate", "terms", "_hash")

    def __init__(self, predicate: str, terms: tuple[Term, ...] = ()) -> None:
        self.predicate = predicate
        self.terms = terms
        self._hash = hash((predicate, terms))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # the stored hashes first: equal atoms parsed apart are distinct
        # dict keys that meet here, and most unequal ones differ in hash
        if other.__class__ is not Atom:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    __repr__ = _value_repr

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.terms)})"

    @property
    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.terms)


class _Operator(Literal):
    """A temporal operator with range ``rho``. Each concrete class is the
    one definition of its operator: it states its ``keyword``, which
    ``OPERATORS`` maps back to it for the parser and ``__str__`` prints.
    ``operands`` are its literal arguments in order, and ``rebuild`` makes
    the same operator with the same range over new operands.

    An operator hashes once, at construction, to ``hash((keyword, rho,
    *operands))``, from its operands' stored hashes, so hashing a nested
    literal costs the same at any depth (the normal form looks every
    nested sub-literal up by hash). It equals only an operator of its own
    class with equal range and operands."""

    __slots__ = ()

    __repr__ = _value_repr


class _Unary(_Operator):
    """A unary operator over ``inner``, which states its own meaning. A
    past operator (``past``) holds at ``t`` by what its operand holds on
    ``t - rho``, and ``_past_truth`` is the ``IntervalSet`` method that
    gives its truth set; a future operator holds by what its operand holds
    on ``t + rho``, and is the past operator of its kind on the reflected
    timeline."""

    __slots__ = ("rho", "inner", "_hash")

    def __init__(self, rho: Interval, inner: Literal) -> None:
        self.rho = rho
        self.inner = inner
        self._hash = hash((self.keyword, rho, inner))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a chain of unary operators compares in a loop, not one frame per level
        lit: Literal = self
        while True:
            if lit._hash != other._hash or lit.rho != other.rho:
                return False
            lit, other = lit.inner, other.inner
            if lit is other:
                return True
            if not isinstance(lit, _Unary):
                return lit == other
            if other.__class__ is not lit.__class__:
                return False

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # a chain of unary operators prints in a loop, not one frame per level
        prefix = []
        lit: Literal = self
        while isinstance(lit, _Unary):
            prefix.append(f"{lit.keyword}{lit.rho} ")
            lit = lit.inner
        return "".join(prefix) + _operand_text(lit)

    @property
    def operands(self) -> tuple[Literal]:
        return (self.inner,)

    def rebuild(self, inner: Literal) -> _Unary:
        return type(self)(self.rho, inner)

    def truth(self, inner: IntervalSet) -> IntervalSet:
        """The operator's truth set, given its operand's."""
        if self.past:
            return self._past_truth(inner, self.rho)
        return self._past_truth(inner.reflect(), self.rho).reflect()

    def reads(self, region: IntervalSet) -> IntervalSet:
        """The operand points its truth on ``region`` depends on: each
        piece's Minkowski sum with ``-rho`` for a past operator, with
        ``rho`` for a future one. So ``truth(inner)`` and
        ``truth(inner.intersect(reads(region)))`` agree on ``region``: the
        window a box reads at a point of ``region`` is connected and lies
        in ``reads``, so it fits in a piece of ``inner`` exactly when it
        fits in a piece of the intersection."""
        reach = self.rho.negate() if self.past else self.rho
        return IntervalSet.from_iterable([p.minkowski(reach) for p in region])

    def affects(self, region: IntervalSet) -> IntervalSet:
        """The mirror of ``reads``: the points whose truth reads an operand
        point of ``region``, each piece's Minkowski sum with ``rho`` for a
        past operator, with ``-rho`` for a future one. A point ``p`` lies
        in it exactly when ``reads({p})`` meets ``region``."""
        reach = self.rho if self.past else self.rho.negate()
        return IntervalSet.from_iterable([p.minkowski(reach) for p in region])


class _Binary(_Operator):
    __slots__ = ("left", "rho", "right", "_hash")

    def __init__(self, left: Literal, rho: Interval, right: Literal) -> None:
        self.left = left
        self.rho = rho
        self.right = right
        self._hash = hash((self.keyword, rho, left, right))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (self.left, self.rho, self.right) == (
            other.left, other.rho, other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{_operand_text(self.left)} {self.keyword}{self.rho} {_operand_text(self.right)}"

    @property
    def operands(self) -> tuple[Literal, Literal]:
        return (self.left, self.right)

    def rebuild(self, left: Literal, right: Literal) -> _Binary:
        return type(self)(left, self.rho, right)


def _operand_text(lit: Literal) -> str:
    return f"({lit})" if isinstance(lit, _Binary) else str(lit)


class BoxMinus(_Unary):
    __slots__ = ()
    keyword = "boxminus"
    past = True
    _past_truth = staticmethod(IntervalSet.box_minus)


class BoxPlus(_Unary):
    __slots__ = ()
    keyword = "boxplus"
    past = False
    _past_truth = staticmethod(IntervalSet.box_minus)


class DiamondMinus(_Unary):
    __slots__ = ()
    keyword = "diamondminus"
    past = True
    _past_truth = staticmethod(IntervalSet.diamond_minus)


class DiamondPlus(_Unary):
    __slots__ = ()
    keyword = "diamondplus"
    past = False
    _past_truth = staticmethod(IntervalSet.diamond_minus)


class Since(_Binary):
    __slots__ = ()
    keyword = "since"


class Until(_Binary):
    __slots__ = ()
    keyword = "until"


OPERATORS: dict[str, type[_Operator]] = {
    op.keyword: op for op in (BoxMinus, BoxPlus, DiamondMinus, DiamondPlus, Since, Until)
}

KEYWORDS = {"top", "bottom", "inf", *OPERATORS}


class Fact(_Value):
    __slots__ = ("atom", "interval")

    def __init__(self, atom: Atom, interval: Interval) -> None:
        self.atom = atom
        self.interval = interval

    def __str__(self) -> str:
        return f"{self.atom}@{self.interval}"


class Rule(_Value):
    """``body -> head``. Its normal-form shape (``rule_form``) and the atoms
    its body reads, in order and with repeats, are worked out once, at
    construction, for the checks, the dependency graph and the reasoner,
    which read them on every pass. Rules are equal, and hash, by body,
    head and id."""

    __slots__ = ("body", "head", "id", "form", "body_atoms")

    def __init__(self, body: tuple[Literal, ...], head: Literal, id: str = "") -> None:
        self.body = body
        self.head = head
        self.id = id
        self.form = rule_form(self)
        self.body_atoms = tuple(a for lit in body for a in literal_atoms(lit))

    def __str__(self) -> str:
        body = ", ".join(str(b) for b in self.body)
        return f"{body} -> {self.head} ." if body else f"-> {self.head} ."


class Program(_Value):
    __slots__ = ("rules", "axioms")

    def __init__(self, rules: tuple[Rule, ...], axioms: tuple[Fact, ...] = ()) -> None:
        self.rules = rules
        self.axioms = axioms

    @property
    def is_normal_form(self) -> bool:
        return all(r.form is not None for r in self.rules)

    @property
    def is_ground(self) -> bool:
        return not any(
            isinstance(t, Variable)
            for r in self.rules
            for a in (*r.body_atoms, *head_atoms(r))
            for t in a.terms
        )

    def predicates(self) -> list[str]:
        preds: set[str] = {f.atom.predicate for f in self.axioms}
        for r in self.rules:
            preds.update(a.predicate for a in r.body_atoms)
            preds.update(a.predicate for a in head_atoms(r))
        return sorted(preds)

    def constants(self) -> set[str]:
        out: set[str] = {c.name for f in self.axioms for c in f.atom.terms}
        for r in self.rules:
            for a in (*r.body_atoms, *head_atoms(r)):
                out.update(t.name for t in a.terms if isinstance(t, Constant))
        return out

    def __str__(self) -> str:
        return program_text(self)


def literal_atoms(lit: Literal) -> Iterator[Atom]:
    if isinstance(lit, Atom):
        yield lit
    elif isinstance(lit, _Operator):
        for operand in lit.operands:
            yield from literal_atoms(operand)


def head_atoms(rule: Rule) -> list[Atom]:
    return list(literal_atoms(rule.head))


def literal_variables(lit: Literal) -> set[str]:
    return {t.name for a in literal_atoms(lit) for t in a.terms if isinstance(t, Variable)}


def rule_form(rule: Rule) -> type[Literal] | None:
    """The temporal-normal-form shape of a rule, or None if not normal.

    ``Atom`` for a Horn rule, whose body is one or more atoms; for a
    temporal rule, the class of its body's one literal, an operator
    whose operands are atoms. Every head is an atom.
    """
    if not isinstance(rule.head, Atom) or not rule.body:
        return None
    if all(isinstance(b, Atom) for b in rule.body):
        return Atom
    lit = rule.body[0]
    if (
        len(rule.body) == 1
        and isinstance(lit, _Operator)
        and all(isinstance(o, Atom) for o in lit.operands)
    ):
        return type(lit)
    return None


FP_FORMS = {Atom, BoxMinus, DiamondMinus}


def is_forward_propagating(program: Program) -> bool:
    return all(r.form in FP_FORMS for r in program.rules)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:%[^\n]*\s*)*                  # whitespace and comments, skipped
    (?:
        (                               # 1: the token
            ->
          | \d+(?:\.\d+|/\d+)?          # a number; its unit is group 2
          | [A-Za-z_][A-Za-z0-9_]*
          | '(?:[^'\\\n]|\\.)*'
          | [()\[\],.@\-]
          | \Z                          # the end of the input, as ""
        )
        ((?<=\d)[smhd]\b)?
      | (.)                             # 3: a character no token starts with
    )
    """,
    re.VERBOSE,
)


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A parse error at ``offset`` in ``text``, located by line and column
    (both from 1), which are worked out only here."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _offset(text: str, index: int) -> int:
    """Where the token ``index`` of ``text`` starts: ``_TOKEN_RE`` runs
    again up to it, as only an error needs a token's place."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None))
    return max(m.start(1), m.start(3))


def _tokenize(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The texts of the tokens of ``text`` and their units, in one
    ``findall`` pass of ``_TOKEN_RE``, or the first stray character as a
    ``ParseError``.

    Each match skips whitespace and comments, then takes one token. The
    skip stops only where neither can go on, and the last alternative
    takes any character the others do not, so no match fails and none
    gives back what the skip took, however long: the only backtracking is
    within a token (``-`` against ``->``, or a quote left open, which is
    an error). The texts end with "" (the end of the input; twice after
    trailing whitespace). A token's kind is read off its text: ``->`` the
    arrow, a decimal digit first a number (whose unit, one of ``smhd``, is
    the matching entry of the units, "" for none), a letter or ``_`` first
    an identifier or keyword, a quote first a quoted constant, and any
    other character punctuation.
    """
    texts, units, stray = zip(*_TOKEN_RE.findall(text))
    if any(stray):
        for index, char in enumerate(stray):
            if char:
                raise _error_at(text, _offset(text, index), f"unexpected character {char!r}")
    return texts, units


class _Parser:
    """Recursive descent over the tokens of ``text``, read by index:
    ``tokens[pos]`` is the next token's text ("" at the end of the input)
    and ``units[pos]`` its unit (see ``_tokenize``). Each rule tests the
    text itself, so a quoted ``'inf'`` never reads as the keyword ``inf``;
    an error names its token by index, and only then is its line and
    column worked out."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.units = _tokenize(text)
        self.pos = 0
        # one Atom per distinct atom of the text, keyed by predicate and terms
        self.atoms: dict[tuple[str, tuple[Term, ...]], Atom] = {}
        self.seen_unit = False
        self.seen_bare = False

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A parse error at token ``pos``, by default the next one."""
        return _error_at(self.text, _offset(self.text, self.pos if pos is None else pos), message)

    def expected(self, want: str) -> ParseError:
        found = self.tokens[self.pos]
        return self.error(f"expected {want!r}, found {found or 'end of input'!r}")

    # -- numbers and intervals ------------------------------------------

    def parse_number(self) -> int | Fraction:
        pos = self.pos
        negative = self.tokens[pos] == "-"
        if negative:
            pos = self.pos = pos + 1
        text = self.tokens[pos]
        if not text[:1].isdecimal():
            raise self.expected("number")
        self.pos = pos + 1
        if text.isdecimal():
            value = int(text)
        else:
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise self.error(f"zero denominator in {text!r}", pos) from None
        unit = self.units[pos]
        if unit:
            self.seen_unit = True
            value *= UNIT_SCALE[unit]
        else:
            self.seen_bare = True
        return to_time(-value if negative else value)

    def parse_endpoint(self) -> Time:
        tokens, pos = self.tokens, self.pos
        if tokens[pos] == "inf":
            self.pos = pos + 1
            return POS_INF
        if tokens[pos] == "-" and tokens[pos + 1] == "inf":
            self.pos = pos + 2
            return NEG_INF
        return self.parse_number()

    def parse_interval(self) -> Interval:
        tokens, start = self.tokens, self.pos
        opening = tokens[start]
        if opening != "[" and opening != "(":
            raise self.error("expected interval")
        self.pos += 1
        lo = self.parse_endpoint()
        if tokens[self.pos] != ",":
            raise self.expected(",")
        self.pos += 1
        hi = self.parse_endpoint()
        closing = tokens[self.pos]
        if closing != "]" and closing != ")":
            raise self.error("expected ']' or ')'")
        self.pos += 1
        try:
            return Interval(lo, hi, opening == "(", closing == ")")
        except ValueError as exc:
            raise self.error(str(exc), start) from exc

    def parse_operator_interval(self) -> Interval:
        start = self.pos
        rho = self.parse_interval()
        if rho.lo < 0:
            raise self.error(f"negative operator range {rho}", start)
        return rho

    # -- atoms and literals ---------------------------------------------

    def parse_ident(self) -> str:
        text = self.tokens[self.pos]
        if not text.isidentifier():
            raise self.expected("ident")
        if text in KEYWORDS:
            raise self.error(f"{text!r} is a reserved word")
        if text.startswith(AUX_PREFIX):
            raise self.error(f"identifiers may not start with {AUX_PREFIX!r}")
        self.pos += 1
        return text

    def parse_term(self) -> Term:
        text = self.tokens[self.pos]
        if text[:1] == "'":
            self.pos += 1
            return Constant(text[1:-1].replace("\\'", "'").replace("\\\\", "\\"))
        name = self.parse_ident()
        if name[0].isupper():
            return Variable(name)
        return Constant(name)

    def parse_atom(self) -> Atom:
        name = self.parse_ident()
        tokens = self.tokens
        terms: tuple[Term, ...] = ()
        if tokens[self.pos] == "(":
            self.pos += 1
            parsed = [self.parse_term()]
            while tokens[self.pos] == ",":
                self.pos += 1
                parsed.append(self.parse_term())
            if tokens[self.pos] != ")":
                raise self.expected(")")
            self.pos += 1
            terms = tuple(parsed)
        atom = self.atoms.get((name, terms))
        if atom is None:
            atom = self.atoms[name, terms] = Atom(name, terms)
        return atom

    def parse_unary(self, *, nested: bool = False) -> Literal:
        text = self.tokens[self.pos]
        op = OPERATORS.get(text)
        if op is not None and issubclass(op, _Unary):
            self.pos += 1
            rho = self.parse_operator_interval()
            return op(rho, self.parse_unary(nested=True))
        if text == "top":
            self.pos += 1
            return Top()
        if text == "bottom":
            if nested:
                raise self.error("'bottom' may only appear as a whole body literal")
            self.pos += 1
            return Bottom()
        if text == "(":
            self.pos += 1
            lit = self.parse_literal(nested=True)
            if self.tokens[self.pos] != ")":
                raise self.expected(")")
            self.pos += 1
            return lit
        return self.parse_atom()

    def parse_literal(self, *, nested: bool = False) -> Literal:
        left = self.parse_unary(nested=nested)
        op = OPERATORS.get(self.tokens[self.pos])
        if op is not None and issubclass(op, _Binary):
            if isinstance(left, Bottom):
                raise self.error("'bottom' may only appear as a whole body literal")
            self.pos += 1
            rho = self.parse_operator_interval()
            return op(left, rho, self.parse_unary(nested=True))
        return left

    def parse_head(self) -> Literal:
        text = self.tokens[self.pos]
        op = OPERATORS.get(text)
        if op is BoxMinus or op is BoxPlus:
            self.pos += 1
            rho = self.parse_operator_interval()
            return op(rho, self.parse_head())
        if op is not None or text == "bottom":
            raise self.error(f"{text!r} is not allowed in a rule head")
        if text == "top":
            self.pos += 1
            return Top()
        return self.parse_atom()

    # -- statements ------------------------------------------------------

    def parse_rule(self, index: int) -> Rule:
        tokens, start = self.tokens, self.pos
        body: list[Literal] = []
        if tokens[start] != "->":
            body.append(self.parse_literal())
            while tokens[self.pos] == ",":
                self.pos += 1
                body.append(self.parse_literal())
        if tokens[self.pos] != "->":
            raise self.expected("arrow")
        self.pos += 1
        head = self.parse_head()
        if tokens[self.pos] != ".":
            raise self.expected(".")
        self.pos += 1
        rule = Rule(tuple(body), head, f"r{index}")
        loose = literal_variables(rule.head).difference(
            t.name for a in rule.body_atoms for t in a.terms if isinstance(t, Variable)
        )
        if loose:
            raise self.error(f"head variables {sorted(loose)} do not occur in the body", start)
        return rule

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        axioms: list[Fact] = []
        index = 1
        while self.tokens[self.pos]:
            rule = self.parse_rule(index)
            if not rule.body:
                if not isinstance(rule.head, Atom) or not rule.head.is_ground:
                    raise self.error("a bodiless rule must have a ground atom head")
                axioms.append(Fact(rule.head, Interval(NEG_INF, POS_INF, True, True)))
            else:
                rules.append(rule)
                index += 1
        self._check_units()
        return Program(tuple(rules), tuple(axioms))

    def parse_fact(self, subject: str = "database facts") -> Fact:
        atom = self.parse_atom()
        if not atom.is_ground:
            raise self.error(f"{subject} must be ground")
        if self.tokens[self.pos] != "@":
            raise self.expected("@")
        self.pos += 1
        interval = self.parse_interval()
        if self.tokens[self.pos] != ".":
            raise self.expected(".")
        self.pos += 1
        return Fact(atom, interval)

    def parse_database_facts(self) -> list[Fact]:
        facts = []
        while self.tokens[self.pos]:
            facts.append(self.parse_fact())
        self._check_units()
        return facts

    def _check_units(self, subject: str = "file") -> None:
        if self.seen_unit and self.seen_bare:
            raise _error_at(self.text, 0, f"{subject} mixes unit-suffixed and bare durations")


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_database(text: str):
    """Parse a database file into a Model (atom -> IntervalSet)."""
    from .reasoner import Model

    return Model.from_facts(_Parser(text).parse_database_facts())


def parse_fact(text: str) -> Fact:
    """Parse a query: a single ground ``atom@interval`` fact (with or
    without trailing dot) and nothing after it."""
    stripped = text.strip()
    if not stripped.endswith("."):
        stripped += "."
    parser = _Parser(stripped)
    fact = parser.parse_fact("a query")
    rest = parser.tokens[parser.pos]
    if rest:
        raise parser.error(f"unexpected {rest!r} after the query")
    parser._check_units("query")
    return fact


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def program_text(program: Program) -> str:
    lines = [str(r) for r in program.rules]
    lines.extend(f"-> {f.atom} ." for f in program.axioms)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Temporal normal form
# ---------------------------------------------------------------------------

class _Normalizer:
    def __init__(self, program: Program):
        self.counter = 0
        self.aux_for: dict[Literal, Atom] = {}
        self.rules: list[Rule] = []
        self.axioms: list[Fact] = list(program.axioms)
        self.true_atom: Atom | None = None

    def fresh_name(self) -> str:
        name = f"{AUX_PREFIX}{self.counter}"
        self.counter += 1
        return name

    def emit(self, body: tuple[Literal, ...], head: Literal, rid: str) -> None:
        self.rules.append(Rule(body, head, rid))

    def always_true(self) -> Atom:
        # stand-in atom for a nested `top` operand of since/until
        if self.true_atom is None:
            self.true_atom = Atom(f"{AUX_PREFIX}top")
            self.axioms.append(
                Fact(self.true_atom, Interval(NEG_INF, POS_INF, True, True))
            )
        return self.true_atom

    def simplify(self, lit: Literal) -> Literal:
        """Fold `top` through the operators; since/until over top reduce."""
        if not isinstance(lit, _Operator):
            return lit
        first, *rest = map(self.simplify, lit.operands)
        if not isinstance(first, Top):
            return lit.rebuild(first, *rest)
        if isinstance(lit, _Unary):
            return Top()
        return (DiamondMinus if isinstance(lit, Since) else DiamondPlus)(lit.rho, *rest)

    def atomize(self, lit: Literal, rid: str) -> Atom:
        """Define a fresh predicate equivalent to ``lit`` and return it.

        The name is taken before the operands are atomized, so an outer
        literal numbers before its operands. The variables are read off
        the flattened literal, whose operands are atoms carrying their
        own variables, so no level walks the literal below it.
        """
        if isinstance(lit, Atom):
            return lit
        if isinstance(lit, Top):
            return self.always_true()
        cached = self.aux_for.get(lit)
        if cached is not None:
            return cached
        name = self.fresh_name()
        flat = self.flatten(lit, rid)
        aux = Atom(name, tuple(Variable(v) for v in sorted(literal_variables(flat))))
        self.aux_for[lit] = aux
        self.emit((flat,), aux, f"{rid}~{name}")
        return aux

    def flatten(self, lit: Literal, rid: str) -> Literal:
        """Rewrite one literal so each operator applies directly to an atom."""
        if isinstance(lit, _Operator):
            return lit.rebuild(*map(self.atomize, lit.operands, repeat(rid)))
        return lit

    def add_rule(self, rule: Rule) -> None:
        body: list[Literal] = []
        for lit in rule.body:
            lit = self.simplify(lit)
            if isinstance(lit, Bottom):
                return  # rule can never fire
            if isinstance(lit, Top):
                continue
            body.append(self.flatten(lit, rule.id))

        head = self.simplify(rule.head)
        if isinstance(head, Top):
            return  # trivially satisfied
        rid = rule.id
        # Peel box heads via the dual diamond rule; every level carries
        # the variables of the one atom inside.
        carried = tuple(Variable(v) for v in sorted(literal_variables(head)))
        while isinstance(head, (BoxMinus, BoxPlus)):
            carrier = Atom(self.fresh_name(), carried)
            self.finish_rule(tuple(body), carrier, rid)
            dual = DiamondPlus if isinstance(head, BoxMinus) else DiamondMinus
            body = [dual(head.rho, carrier)]
            rid = f"{rid}^"
            head = head.inner

        self.finish_rule(tuple(body), head, rid)

    def finish_rule(self, body: tuple[Literal, ...], head: Atom, rid: str) -> None:
        if not body:
            if not head.is_ground:
                raise InputError(f"rule {rid}: unrestricted head {head}")
            self.axioms.append(Fact(head, Interval(NEG_INF, POS_INF, True, True)))
            return
        temporal = [b for b in body if not isinstance(b, Atom)]
        if temporal and len(body) > 1:
            new_body: list[Literal] = []
            for lit in body:
                if isinstance(lit, Atom):
                    new_body.append(lit)
                else:
                    new_body.append(self.atomize(lit, rid))
            body = tuple(new_body)
        self.emit(body, head, rid)


def to_normal_form(program: Program) -> Program:
    """Convert to temporal normal form.

    Nested temporal literals and temporal literals sharing a body with
    other literals are factored through fresh ``_aux`` predicates; box
    heads are rewritten through the dual diamond rule. Already-normal
    programs come back unchanged (idempotent).
    """
    if program.is_normal_form:
        return program
    norm = _Normalizer(program)
    for rule in program.rules:
        norm.add_rule(rule)
    return Program(tuple(norm.rules), tuple(norm.axioms))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def _substitute(
    lit: Literal, binding: dict[str, str], atoms: dict[tuple[str, tuple[str, ...]], Atom]
) -> Literal:
    """``lit`` with each variable replaced by the constant ``binding``
    gives it. Each ground atom is taken from ``atoms``, keyed by its
    predicate and constant names, or made and put there, so the atoms
    of one ``atoms`` dict are one object each."""
    if isinstance(lit, Atom):
        names = tuple(t.name if isinstance(t, Constant) else binding[t.name] for t in lit.terms)
        atom = atoms.get((lit.predicate, names))
        if atom is None:
            atom = atoms[lit.predicate, names] = Atom(lit.predicate, tuple(map(Constant, names)))
        return atom
    if isinstance(lit, _Operator):
        return lit.rebuild(*(_substitute(op, binding, atoms) for op in lit.operands))
    return lit


def _required_atoms(lit: Literal) -> Iterator[Atom]:
    """The atoms that hold at some time wherever ``lit`` holds: an atom
    itself, those of a unary operator's inner literal, and those of the
    right operand of ``since``/``until`` (the left one needs to hold only
    on an interval that may be empty). ``top`` requires nothing."""
    if isinstance(lit, Atom):
        yield lit
    elif isinstance(lit, _Unary):
        yield from _required_atoms(lit.inner)
    elif isinstance(lit, _Binary):
        yield from _required_atoms(lit.right)


def _matches(
    atoms: list[Atom], relations: list[Iterable[tuple[str, ...]]]
) -> list[dict[str, str]]:
    """Every binding of the atoms' variables under which each atom's
    constants form a tuple of the relation beside it. Each relation is
    indexed on the positions already bound, so a join costs about what
    it yields."""
    bindings: list[dict[str, str]] = [{}]
    known: set[str] = set()
    for atom, relation in zip(atoms, relations):
        terms = atom.terms
        keys = [
            i for i, t in enumerate(terms) if isinstance(t, Constant) or t.name in known
        ]
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for tup in relation:
            if len(tup) == len(terms):
                index.setdefault(tuple(tup[i] for i in keys), []).append(tup)
        extended = []
        for binding in bindings:
            key = tuple(
                t.name if isinstance(t, Constant) else binding[t.name]
                for t in (terms[i] for i in keys)
            )
            for tup in index.get(key, ()):
                new = dict(binding)
                if all(
                    isinstance(t, Constant) or new.setdefault(t.name, value) == value
                    for t, value in zip(terms, tup)
                ):
                    extended.append(new)
        bindings = extended
        if not bindings:
            break
        known.update(t.name for t in terms if isinstance(t, Variable))
    return bindings


def _instances(
    terms: tuple[Term, ...], binding: dict[str, str], names: list[str]
) -> Iterator[tuple[str, ...]]:
    """The constants of ``terms`` under ``binding``, each variable it
    leaves free ranging over ``names``."""
    free = sorted(
        {t.name for t in terms if isinstance(t, Variable) and t.name not in binding}
    )
    for values in product(names, repeat=len(free)):
        full = {**binding, **dict(zip(free, values))}
        yield tuple(t.name if isinstance(t, Constant) else full[t.name] for t in terms)


def ground(program: Program, database=None) -> Program:
    """Instantiate each rule with the bindings under which it can fire.

    Constants are drawn from the program and the database. First the
    time-abstracted program is evaluated: plain Datalog, semi-naive, over
    the atoms of the database and the axioms, each rule deriving its head
    atoms from its *required* body atoms (``_required_atoms``). Then each
    rule is instantiated only with the bindings under which every
    required atom is in that abstract model; a variable that no required
    atom binds (one in the head or a ``since`` left operand only) ranges
    over all constants.

    No instance that can fire is dropped. An atom that holds at some time
    in the least model is in the abstract model, by induction on its
    derivation: the instance that derives it has a body that holds at
    some time, so each required atom holds at some time, is in the
    abstract model by induction, and there the abstract rule derives the
    head's atoms. A dropped instance has a required atom outside the
    abstract model, which holds nowhere, so its body holds nowhere, and
    dropping it leaves the model unchanged.

    The result is therefore meant for ``database`` alone (or a database
    whose atoms all lie in its abstract model): reasoning over another
    database may need an instance that was dropped here, so ground the
    program again for each database.

    The kept instances are a subsequence of the exhaustive grounding,
    in its order (rule by rule, bindings in lexicographic order of the
    sorted variables over the sorted constants) and with its rule ids.
    Rules without variables pass through untouched, and a program
    without variables is returned as it is. A rule whose variables
    cannot be bound (no constants anywhere) has no instances.
    """
    if program.is_ground:
        return program
    seeds = [f.atom for f in program.axioms]
    if database is not None:
        seeds += database.atoms()
    names = sorted(program.constants() | {t.name for a in seeds for t in a.terms})
    plans = []
    feeds: dict[str, list[int]] = {}  # predicate -> the plans whose required atoms read it
    for i, rule in enumerate(program.rules):
        required = [a for lit in rule.body for a in _required_atoms(lit)]
        bound = sorted({t.name for a in required for t in a.terms if isinstance(t, Variable)})
        plans.append((required, bound, head_atoms(rule), set()))
        for pred in dict.fromkeys(a.predicate for a in required):
            feeds.setdefault(pred, []).append(i)

    holds: dict[str, set[tuple[str, ...]]] = {}
    delta: dict[str, set[tuple[str, ...]]] = {}
    for atom in seeds:
        delta.setdefault(atom.predicate, set()).add(tuple(t.name for t in atom.terms))
    first = True
    while first or delta:
        for pred, tuples in delta.items():
            holds.setdefault(pred, set()).update(tuples)
        fresh: dict[str, set[tuple[str, ...]]] = {}
        # a later round visits only the plans its delta feeds, in rule order
        visit = range(len(plans)) if first else sorted(
            {i for pred in delta for i in feeds.get(pred, ())}
        )
        for p in visit:
            required, bound, heads, fired = plans[p]
            if first:
                found = _matches(required, [holds.get(a.predicate, ()) for a in required])
            else:
                found = []
                for i, atom in enumerate(required):
                    if atom.predicate in delta:
                        rest = required[:i] + required[i + 1:]
                        found += _matches(
                            [atom, *rest],
                            [delta[atom.predicate], *(holds.get(a.predicate, ()) for a in rest)],
                        )
            for binding in found:
                key = tuple(binding[v] for v in bound)
                if key in fired:
                    continue
                fired.add(key)
                for head in heads:
                    known = holds.get(head.predicate, ())
                    for tup in _instances(head.terms, binding, names):
                        if tup not in known:
                            fresh.setdefault(head.predicate, set()).add(tup)
        delta, first = fresh, False

    variables = [
        sorted(set().union(literal_variables(rule.head), *map(literal_variables, rule.body)))
        for rule in program.rules
    ]
    # the atoms the output shares: those of the rules it keeps as they are
    # first, then each one an instance makes
    atoms: dict[tuple[str, tuple[str, ...]], Atom] = {}
    for rule, free in zip(program.rules, variables):
        if not free:
            for atom in (*rule.body_atoms, *head_atoms(rule)):
                atoms.setdefault((atom.predicate, tuple(t.name for t in atom.terms)), atom)
    out: list[Rule] = []
    for rule, free, (_, bound, _, fired) in zip(program.rules, variables, plans):
        if not free:
            out.append(rule)
            continue
        terms = tuple(Variable(v) for v in free)
        combos = sorted(
            combo
            for key in fired
            for combo in _instances(terms, dict(zip(bound, key)), names)
        )
        for combo in combos:
            binding = dict(zip(free, combo))
            out.append(
                Rule(
                    tuple(_substitute(b, binding, atoms) for b in rule.body),
                    _substitute(rule.head, binding, atoms),
                    f"{rule.id}[{','.join(combo)}]",
                )
            )
    return Program(tuple(out), program.axioms)
