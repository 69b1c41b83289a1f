"""Unit tests for the C-subset front-end: lexer, parser, lowering."""

import pytest

from repro.dfg import evaluate
from repro.errors import FrontendError
from repro.frontend import c_to_dfg, parse, tokenize
from repro.frontend import ast_nodes as ast


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("word_t f(int x) { return x & 3; }")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert kinds[-1] == "eof"
        texts = [t.text for t in tokens]
        assert "&" in texts and "3" in texts

    def test_multi_char_operators(self):
        tokens = tokenize("a &= b; c ^= d; e |= f; i++; j <= 4;")
        texts = [t.text for t in tokens if t.kind == "op"]
        assert "&=" in texts and "^=" in texts and "|=" in texts
        assert "++" in texts and "<=" in texts

    def test_hex_numbers(self):
        tokens = tokenize("0xFF 0x1b")
        assert [t.text for t in tokens[:-1]] == ["0xFF", "0x1b"]

    def test_comments_skipped(self):
        tokens = tokenize("a // line comment\n /* block\ncomment */ b")
        assert [t.text for t in tokens if t.kind == "ident"] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(FrontendError):
            tokenize("/* never closed")

    def test_bad_character(self):
        with pytest.raises(FrontendError):
            tokenize("a @ b")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)


class TestParser:
    def test_function_signature(self):
        program = parse("void f(word_t a, word_t b[4]) { a = b[0]; }")
        fn = program.function()
        assert fn.name == "f"
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.params[1].array_size is not None

    def test_multiple_functions(self):
        program = parse("""
            void f(word_t a) { a = a & a; }
            void g(word_t b) { b = b | b; }
        """)
        assert program.function("g").name == "g"
        with pytest.raises(FrontendError):
            program.function()  # ambiguous
        with pytest.raises(FrontendError):
            program.function("h")

    def test_operator_precedence(self):
        program = parse("void f(word_t a, word_t b, word_t c) { a = a | b ^ c & a; }")
        assign = program.function().body[0]
        # top node must be OR (lowest precedence)
        assert isinstance(assign.value, ast.BinOp)
        assert assign.value.op == "|"
        assert assign.value.right.op == "^"

    def test_for_loop_forms(self):
        for update in ("i++", "i += 2", "i = i + 1"):
            program = parse(
                f"void f(word_t a) {{ for (int i = 0; i < 4; {update}) "
                "{ a = a & a; } }")
            loop = program.function().body[0]
            assert isinstance(loop, ast.For)

    def test_for_downward(self):
        program = parse(
            "void f(word_t a) { for (int i = 3; i >= 0; i--) { a = a & a; } }")
        loop = program.function().body[0]
        assert loop.step == -1

    def test_compound_assignment(self):
        program = parse("void f(word_t a, word_t b) { a &= b; }")
        assign = program.function().body[0]
        assert assign.op == "&="

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FrontendError, match="line"):
            parse("void f(word_t a) { a = ; }")
        with pytest.raises(FrontendError):
            parse("void f(word_t a) { a = b }")  # missing semicolon
        with pytest.raises(FrontendError):
            parse("void f(word_t a) {")  # unterminated block

    def test_loop_condition_must_test_loop_var(self):
        with pytest.raises(FrontendError):
            parse("void f(word_t a) { for (int i = 0; j < 4; i++) { a = a; } }")


class TestLowering:
    def test_simple_kernel(self):
        dag = c_to_dfg("word_t f(word_t a, word_t b) { return a & ~b; }")
        out = evaluate(dag, {"a": 0b1100, "b": 0b1010}, lanes=4)
        assert out["return"] == 0b0100

    def test_loop_unrolling(self):
        dag = c_to_dfg("""
            word_t f(word_t x[4]) {
                word_t acc = 0;
                for (int i = 0; i < 4; i++) { acc = acc | x[i]; }
                return acc;
            }
        """)
        inputs = {f"x[{i}]": 1 << i for i in range(4)}
        assert evaluate(dag, inputs, lanes=4)["return"] == 0b1111

    def test_nested_loops_with_index_arithmetic(self):
        dag = c_to_dfg("""
            word_t f(word_t x[6]) {
                word_t acc = 0;
                for (int i = 0; i < 2; i++) {
                    for (int j = 0; j < 3; j++) {
                        acc = acc ^ x[i * 3 + j];
                    }
                }
                return acc;
            }
        """)
        inputs = {f"x[{i}]": (i + 1) for i in range(6)}
        expected = 0
        for v in range(1, 7):
            expected ^= v
        assert evaluate(dag, inputs, lanes=4)["return"] == expected & 0xF

    def test_parameter_writes_become_outputs(self):
        dag = c_to_dfg("""
            void f(word_t a, word_t out[2]) {
                out[0] = a & a;
                out[1] = ~a;
            }
        """)
        assert set(dag.outputs) == {"out[0]", "out[1]"}

    def test_const_broadcast(self):
        dag = c_to_dfg("word_t f(word_t a) { word_t m = ~0; return a ^ m; }")
        out = evaluate(dag, {"a": 0b0101}, lanes=4)
        assert out["return"] == 0b1010

    def test_arbitrary_literal_rejected(self):
        with pytest.raises(FrontendError, match="broadcast"):
            c_to_dfg("word_t f(word_t a) { return a & 5; }")

    def test_arith_on_vectors_rejected(self):
        with pytest.raises(FrontendError):
            c_to_dfg("word_t f(word_t a, word_t b) { return a + b; }")

    def test_read_before_assign_rejected(self):
        with pytest.raises(FrontendError, match="before assignment"):
            c_to_dfg("word_t f(word_t a) { word_t t; return t & a; }")

    def test_out_of_bounds_index_rejected(self):
        with pytest.raises(FrontendError, match="out of bounds"):
            c_to_dfg("word_t f(word_t x[2]) { return x[5]; }")

    def test_loop_var_as_vector_rejected(self):
        with pytest.raises(FrontendError):
            c_to_dfg("""
                word_t f(word_t a) {
                    word_t acc = 0;
                    for (int i = 0; i < 2; i++) { acc = acc | i; }
                    return acc;
                }
            """)

    def test_unbounded_unroll_rejected(self):
        with pytest.raises(FrontendError, match="unrolls beyond"):
            c_to_dfg("""
                word_t f(word_t a) {
                    word_t acc = a;
                    for (int i = 0; i < 99999999; i++) { acc = acc & a; }
                    return acc;
                }
            """)

    def test_nested_unroll_bounded_in_total(self):
        import time

        started = time.monotonic()
        with pytest.raises(FrontendError, match="unrolls beyond"):
            c_to_dfg("""
                word_t f(word_t a) {
                    word_t acc = a;
                    for (int i = 0; i < 2000; i++) {
                        for (int j = 0; j < 2000; j++) { acc = acc & a; }
                    }
                    return acc;
                }
            """)
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("header", [
        "int i = 0; i < 4; i -= 1",
        "int i = 4; i > 0; i += 2",
        "int i = 0; i != 5; i += 2",
        "int i = 0; i != 4; i -= 1",
    ])
    def test_endless_loop_rejected(self, header):
        with pytest.raises(FrontendError, match="never ends"):
            c_to_dfg(f"""
                word_t f(word_t a) {{
                    word_t acc = a;
                    for ({header}) {{ acc = acc & a; }}
                    return acc;
                }}
            """)

    def test_trip_count_matches_stepping(self):
        from repro.frontend.lower import _trip_count

        conds = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                 ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
                 "!=": lambda a, b: a != b}
        for op, cond in conds.items():
            for start in range(-4, 5):
                for bound in range(-4, 5):
                    for step in (-3, -2, -1, 1, 2, 3):
                        value, trips = start, 0
                        while cond(value, bound) and trips <= 20:
                            value, trips = value + step, trips + 1
                        want = None if trips > 20 else trips
                        assert _trip_count(start, bound, step, op) == want, (
                            op, start, bound, step)

    def test_no_output_rejected(self):
        with pytest.raises(FrontendError, match="no outputs"):
            c_to_dfg("void f(word_t a) { word_t t = a & a; }")

    def test_statement_after_return_rejected(self):
        with pytest.raises(FrontendError, match="after return"):
            c_to_dfg("word_t f(word_t a) { return a & a; a = a; }")

    def test_compound_assignment_lowering(self):
        dag = c_to_dfg("word_t f(word_t a, word_t b) { a ^= b; return a; }")
        out = evaluate(dag, {"a": 0b1100, "b": 0b1010}, lanes=4)
        assert out["return"] == 0b0110

    def test_redeclaration_rejected(self):
        with pytest.raises(FrontendError, match="redeclaration"):
            c_to_dfg("word_t f(word_t a) { word_t t = a; word_t t = a; return t; }")

    def test_local_array(self):
        dag = c_to_dfg("""
            word_t f(word_t a, word_t b) {
                word_t t[2];
                t[0] = a & b;
                t[1] = a | b;
                return t[0] ^ t[1];
            }
        """)
        out = evaluate(dag, {"a": 0b1100, "b": 0b1010}, lanes=4)
        assert out["return"] == (0b1000 ^ 0b1110)

    def test_between_kernel_matches_reference(self):
        from repro.workloads import bitweaving

        dag = bitweaving.between_dag(bits=4)
        import random

        rng = random.Random(5)
        column = [rng.randrange(16) for _ in range(20)]
        inputs = bitweaving.scan_inputs(3, 12, column, bits=4)
        out = evaluate(dag, inputs, lanes=20)
        assert out["return"] == bitweaving.between_reference(3, 12, column)
