"""Query-language frontend: tokenizer (`craql.query.tokens`), parser
(`craql.query.parser`), IR and unparser (`craql.query.ast`), and schema check
(`craql.query.validate`)."""
