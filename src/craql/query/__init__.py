"""Query-language frontend: tokenizer (`craql.query.tokens`), parser
(`craql.query.parser`), IR and unparser (`craql.query.ast`), and schema check
(`craql.query.validate`). The IR has one node class per construct, so the
parser builds, and every pass over the IR sees, one form of each."""
