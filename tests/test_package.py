"""The package holds only code the package itself calls: the tests'
independent references live in tests/_reference.py."""

import ast
import os

import metaplectic

# public definitions no code in the package names, each with its caller
UNNAMED_IN_PACKAGE = {
    "cartan_inverse": "bench/tracing.py's search_box reads the inverse Cartan rows",
    "_OutputValidator.check_schema": "jsonschema.validate calls this hook on its cls",
}


def test_every_public_definition_is_named_in_the_package():
    root = os.path.dirname(os.path.abspath(metaplectic.__file__))
    named, defined = set(), []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
    unnamed = {qualified for qualified, bare in defined if bare not in named}
    assert unnamed == set(UNNAMED_IN_PACKAGE)
