"""Standard interpreter tests: arithmetic, lists, control flow, closures,
letrec, dcons, regions, errors, and Python interop."""

import sys

import pytest

from repro.lang.errors import EvalError, UseAfterFreeError
from repro.lang.parser import parse_expr, parse_program
from repro.lang.prelude import prelude_program
from repro.semantics.interp import Interpreter, run_program
from repro.semantics.values import VBool, VClosure, VCons, VInt, VNil


def run(source: str):
    interp = Interpreter()
    value = interp.run(parse_program(source))
    return interp.to_python(value)


class TestArithmetic:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("1 + 2", 3),
            ("10 - 3", 7),
            ("4 * 5", 20),
            ("17 / 5", 3),
            ("0 - 7", -7),
            ("2 + 3 * 4", 14),
            ("(2 + 3) * 4", 20),
        ],
    )
    def test_arith(self, source, expected):
        assert run(source) == expected

    @pytest.mark.parametrize(
        "source,expected",
        [
            ("1 == 1", True),
            ("1 == 2", False),
            ("1 <> 2", True),
            ("1 < 2", True),
            ("2 <= 2", True),
            ("3 > 4", False),
            ("4 >= 4", True),
        ],
    )
    def test_comparisons(self, source, expected):
        assert run(source) == expected

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            run("1 / 0")

    def test_arith_type_error(self):
        with pytest.raises(EvalError):
            run("1 + true")


class TestListsAndPrims:
    def test_list_literal(self):
        assert run("[1, 2, 3]") == [1, 2, 3]

    def test_nested_lists(self):
        assert run("[[1], [], [2, 3]]") == [[1], [], [2, 3]]

    def test_car_cdr(self):
        assert run("car [1, 2]") == 1
        assert run("cdr [1, 2]") == [2]

    def test_car_of_nil(self):
        with pytest.raises(EvalError):
            run("car nil")

    def test_cdr_of_nil(self):
        with pytest.raises(EvalError):
            run("cdr nil")

    def test_null(self):
        assert run("null nil") is True
        assert run("null [1]") is False

    def test_null_of_int(self):
        with pytest.raises(EvalError):
            run("null 3")

    def test_cons_allocates_one_cell(self):
        interp = Interpreter()
        interp.run(parse_program("cons 1 nil"))
        assert interp.metrics.heap_allocs == 1

    def test_aliasing_not_copying(self):
        # cdr returns the same cells, not a copy
        interp = Interpreter()
        value = interp.run(parse_program("letrec x = [1, 2, 3] in cdr x"))
        assert interp.metrics.heap_allocs == 3  # no extra cells

    def test_dcons_reuses(self):
        interp = Interpreter()
        value = interp.run(parse_program("letrec x = [9, 9] in dcons x 1 nil"))
        assert interp.to_python(value) == [1]
        assert interp.metrics.reused == 1
        assert interp.metrics.heap_allocs == 2  # only the literal

    def test_dcons_nil_donor_falls_back(self):
        interp = Interpreter()
        value = interp.run(parse_program("dcons nil 1 nil"))
        assert interp.to_python(value) == [1]
        assert interp.metrics.dcons_fallback == 1


class TestControlFlowAndFunctions:
    def test_if(self):
        assert run("if 1 < 2 then 10 else 20") == 10
        assert run("if 1 > 2 then 10 else 20") == 20

    def test_if_non_bool_condition(self):
        with pytest.raises(EvalError):
            run("if 1 then 2 else 3")

    def test_lambda_application(self):
        assert run("(lambda x. x + 1) 41") == 42

    def test_closure_captures_environment(self):
        assert run("letrec make = lambda n. lambda x. x + n in (make 10) 5") == 15

    def test_currying(self):
        assert run("letrec add = lambda a b. a + b in add 2 3") == 5

    def test_applying_non_function(self):
        with pytest.raises(EvalError):
            run("1 2")

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            run("zzz")

    def test_recursion(self):
        assert run("fact n = if n == 0 then 1 else n * fact (n - 1); fact 10") == 3628800

    def test_mutual_recursion(self):
        source = (
            "even n = if n == 0 then true else odd (n - 1);"
            "odd n = if n == 0 then false else even (n - 1);"
            "even 10"
        )
        assert run(source) is True

    def test_letrec_value_binding(self):
        assert run("letrec x = 1 + 1 in x * x") == 4

    def test_shadowing(self):
        assert run("letrec x = 1 in (lambda x. x + 1) 10") == 11

    def test_higher_order(self):
        assert run(
            "map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));"
            "map (lambda x. x * x) [1, 2, 3]"
        ) == [1, 4, 9]


class TestPreludePrograms:
    def test_partition_sort(self, partition_sort):
        result, _ = run_program(partition_sort)
        assert result == [1, 2, 3, 4, 5, 7]

    def test_eval_in(self, partition_sort):
        interp = Interpreter()
        value = interp.eval_in(partition_sort, "ps [9, 8, 7]")
        assert interp.to_python(value) == [7, 8, 9]

    def test_deep_recursion(self):
        program = prelude_program(["create_list", "length"], "length (create_list 2000)")
        result, _ = run_program(program)
        assert result == 2000

    def test_deep_recursion_needs_few_python_frames(self):
        # About four Python frames per nml call level: a 300-deep
        # recursion runs within a limit of 2000.
        program = prelude_program(["create_list", "length"], "length (create_list 300)")
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            value = Interpreter(recursion_limit=2000).run(program)
        finally:
            sys.setrecursionlimit(previous)
        assert value == VInt(300)


class TestInterop:
    def test_from_python_round_trip(self):
        interp = Interpreter()
        for obj in [0, -3, True, False, [], [1, 2], [[1], [2, [3]] if False else [2]]]:
            assert interp.to_python(interp.from_python(obj)) == obj

    def test_from_python_rejects_strings(self):
        with pytest.raises(EvalError):
            Interpreter().from_python("nope")

    def test_to_python_rejects_closures(self):
        interp = Interpreter()
        value = interp.run(parse_program("lambda x. x"))
        assert isinstance(value, VClosure)
        with pytest.raises(EvalError):
            interp.to_python(value)

    def test_bool_distinct_from_int(self):
        interp = Interpreter()
        assert interp.to_python(interp.from_python(True)) is True


class TestMetrics:
    def test_eval_steps_and_applications(self):
        interp = Interpreter()
        interp.run(parse_program("(lambda x. x) 1"))
        assert interp.metrics.applications == 1
        assert interp.metrics.eval_steps >= 3

    def test_metrics_snapshot_diff(self):
        interp = Interpreter()
        before = interp.metrics.snapshot()
        interp.run(parse_program("[1, 2, 3]"))
        delta = interp.metrics.diff(before)
        assert delta["heap_allocs"] == 3


class TestRuntimeErrors:
    """A run-time error keeps its message and the span of the node that
    raised it (``None`` where the raising code has no node)."""

    @pytest.mark.parametrize(
        "source,message,span",
        [
            ("f x = x; if 1 then 2 else 3", "if condition is not a bool: 1", "1:13-14"),
            ("f x = x; 1 2", "cannot apply non-function 1", "1:10-13"),
            ("f x = y; f 1", "unbound identifier 'y' at run time", None),
            ("f x = car x; f nil", "car of nil", "1:7-12"),
            ("f x = cdr x; f nil", "cdr of nil", "1:7-12"),
            ("f x = x; 1 / 0", "division by zero", "1:12-13"),
            ("f x = x + true; f 1", "+: expected an int, got true", None),
        ],
    )
    def test_message_and_span(self, source, message, span):
        with pytest.raises(EvalError) as caught:
            Interpreter().run(parse_program(source))
        assert caught.value.message == message
        assert (None if caught.value.span is None else str(caught.value.span)) == span
