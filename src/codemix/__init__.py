"""Sentiment classification toolkit for code-mixed (Spanglish) social media text.

Pipeline: parse language-tagged tweet corpora, normalize the text, build
concatenated word/char TF-IDF features, train a classical classifier
(logistic regression, multinomial naive Bayes, or a linear SVM) and score
predictions with macro-averaged F1.

Import each name from its module (codemix.corpus, .vectorize, .models, ...); the root exports none.
"""
