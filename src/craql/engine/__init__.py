"""Query evaluation: runtime values and environments (`craql.engine.runtime`),
the select links (`craql.engine.links`) and the evaluator
(`craql.engine.evaluator`)."""
