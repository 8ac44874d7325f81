"""Canned corpora and scripted backend transcripts used across tests.

Two replayable scenarios:

* walking_dead: a single-hop question fanned out to five topical agents,
  two of which find the answer; the curation step marks those two reliable
  and finalizes their answer.
* news_reports: a two-round multi-hop question about two news stories,
  resolved by split -> route -> judge -> route -> judge -> defend.
"""

from __future__ import annotations

import json
from pathlib import Path

from ragroute.llm import ScriptedChatBackend, ScriptEntry, TokenUsage
from ragroute.planner import Round
from ragroute.router import RoutedAnswer

MOCK_DIM = 384

# ---------------------------------------------------------------------------
# walking_dead scenario (single hop, five agents)
# ---------------------------------------------------------------------------

WD_QUESTION = "who is darrell brother in the walking dead"
WD_EXPECTED = "Daryl's brother in The Walking Dead is Merle Dixon."
WD_GROUNDTRUTH = "Merle Dixon"

# Bodies are tuned so the mock embedder ranks best centroids strictly in
# agent order a1 > a2 > a3 > a4 > a5 for WD_QUESTION.
WD_CORPUS = [
    {
        "doc_id": "wd-comics",
        "title": "The Walking Dead (comic book)",
        "category": "comics",
        "body": (
            "The Walking Dead is a comic book series. The Walking Dead comic ran for 193 "
            "issues. Issues of The Walking Dead were published in black and white. The "
            "Walking Dead comic inspired several adaptations. Who publishes The Walking "
            "Dead? Image Comics publishes the series. The dead walk in the comic book "
            "series."
        ),
    },
    {
        "doc_id": "wd-media",
        "title": "Daryl Dixon",
        "category": "media",
        "body": (
            "Daryl Dixon is a character from the television series The Walking Dead. Daryl "
            "has an older brother named Merle Dixon in The Walking Dead. Merle Dixon is "
            'described as "The racist and volatile older brother of Daryl Dixon." After '
            "Merle's disappearance, Daryl lets his guard down and starts to bond with the "
            "group. The brother of Daryl in The Walking Dead is Merle."
        ),
    },
    {
        "doc_id": "wd-politics",
        "title": "Dead Man Walking (politics)",
        "category": "politics",
        "body": (
            'In politics and government, the phrase "Dead Man Walking" has been used in '
            "election coverage when a government is expected to fall. The walking dead "
            "metaphor also labels a lame-duck administration. Political commentators also "
            "write about Australian rules football families, about Charles Darwin, and "
            "about the TV show Neighbours. Parliamentary government requires confidence "
            "votes. Ministers resign and cabinets reshuffle. Budgets pass committees after "
            "debate."
        ),
    },
    {
        "doc_id": "wd-television",
        "title": "Daryl Dixon (TV character)",
        "category": "television",
        "body": (
            "Television profile: Daryl had significant periods of time alone and, "
            "throughout these lonely periods, learned to fend for himself and adopted a "
            "hard-boiled survivalist mindset. When the outbreak occurs he and Merle fend "
            "for themselves and drift around, avoiding walkers. The character was "
            "introduced in the first season as a southerner, expert tracker, living in the "
            "shadow of his older brother, Merle. Television critics praised the "
            "performance across seasons of the television drama. Ratings climbed steadily "
            "while showrunners reworked pacing, casting, staging, and episode structure "
            "for later seasons of serialized television."
        ),
    },
    {
        "doc_id": "wd-biography",
        "title": "Biography collections",
        "category": "biography",
        "body": (
            "Celebrated biographies recount lives of naturalists and reformers. A "
            "biography of Charles Darwin chronicles his voyage aboard HMS Beagle. "
            "Biographers assemble letters, journals, and archival records. Biography as a "
            "genre rewards patient scholarship."
        ),
    },
]

WD_AGENT_IDS = ["a1", "a2", "a3", "a4", "a5"]
WD_CATEGORIES = ["comics", "media", "politics", "television", "biography"]

WD_AGENT_REPLIES = {
    "a1": (
        "Analysis: The provided documents do not contain any information about Darrell's "
        "brother in The Walking Dead. The documents mainly discuss the comic book series, "
        "its publication history, and various adaptations, but do not provide details "
        "about specific characters like Darrell and his brother.\n"
        "Answer: I don't know."
    ),
    "a2": (
        "Analysis: The provided documents contain information about Daryl Dixon, a "
        "character from the television series The Walking Dead. According to the document, "
        'Daryl has an older brother named Merle Dixon, who is described as "The racist and '
        'volatile older brother of Daryl Dixon." The document also mentions that "After '
        "Merle's disappearance, Daryl lets his guard down and starts to bond with the "
        'group."\n'
        "Answer: Daryl's brother in The Walking Dead is Merle Dixon."
    ),
    "a3": (
        "Analysis: The provided documents do not contain any information about a character "
        'named Darrell or his brother in the context of "The Walking Dead." The documents '
        "discuss various topics unrelated to the TV show or comic series, including "
        'Australian rules football families, Charles Darwin, the phrase "Dead Man '
        'Walking," and the TV show "Neighbours."\n'
        "Answer: I don't know."
    ),
    "a4": (
        "Analysis: The document mentions Daryl's brother, Merle, and their relationship: "
        '"Daryl had significant periods of time alone and, throughout these lonely '
        "periods, learned to fend for himself and adopted a hard-boiled survivalist "
        "mindset. When the outbreak occurs he and Merle fend for themselves and drift "
        'around, avoiding walkers." It also states, "The character was introduced in the '
        "first season as a southerner, expert tracker, living in the shadow of his older "
        'brother, Merle." These quotes indicate that Darrell\'s brother in The Walking '
        "Dead is Merle Dixon.\n"
        "Answer: Darrell's brother in The Walking Dead is Merle Dixon."
    ),
    "a5": (
        "Analysis: The provided documents do not contain any information about a character "
        "named Darrell or Darrell's brother in the context of \"The Walking Dead.\"\n"
        "Answer: I don't know."
    ),
}

WD_ROUTER_REPLY = (
    "Evaluation: \n"
    "- Response 1 and 3 are unreliable because they claim there is no information, which "
    "is incorrect.\n"
    "- Response 2 and 4 are reliable as they correctly identify Merle Dixon as Daryl's "
    "brother.\n"
    "- Response 5 is unreliable because it incorrectly claims there is no information.\n"
    "\n"
    "Analysis: Responses 2 and 4 provide accurate information about Daryl Dixon having an "
    "older brother named Merle Dixon in The Walking Dead series.\n"
    "\n"
    "Answer: Daryl's brother in The Walking Dead is Merle Dixon."
)

WD_JUDGE_REPLY = (
    "Justification: The response correctly identifies Merle Dixon as Daryl's brother in "
    '"The Walking Dead."\n'
    "Correct: yes"
)

# Matchers keyed on phrases unique to each agent's retrieved documents.
WD_SCRIPT = [
    {"match": "comic book series", "reply": WD_AGENT_REPLIES["a1"]},
    {"match": "racist and volatile", "reply": WD_AGENT_REPLIES["a2"]},
    {"match": "Dead Man Walking", "reply": WD_AGENT_REPLIES["a3"]},
    {"match": "expert tracker", "reply": WD_AGENT_REPLIES["a4"]},
    {"match": "Celebrated biographies", "reply": WD_AGENT_REPLIES["a5"]},
    {"match": "set of respoonses", "reply": WD_ROUTER_REPLY},
]

# ---------------------------------------------------------------------------
# news_reports scenario (multi hop, one agent, two rounds)
# ---------------------------------------------------------------------------

NR_QUERY = (
    "Between the report by The Age on October 22, 2023, claiming that Google manipulates "
    "Search to maximize ad revenue, and the TechCrunch report on December 15, 2023, "
    'alleging that Google "siphons off" news publishers\' content, readers, and ad '
    "revenue through anticompetitive means, was there consistency in the portrayal of "
    "Google's business practices by these news sources?"
)
NR_EXPECTED = (
    "Both reports portray Google as using anticompetitive practices to benefit "
    "financially at others' expense."
)
NR_GROUNDTRUTH = "Yes"

NR_CORPUS = [
    {
        "doc_id": "news-theage",
        "title": "Search manipulation claims",
        "category": "technology",
        "body": (
            "The Age reported on October 22, 2023 about claims made by Megan Gray, a "
            'privacy advocate, who alleged that "Google had accidentally revealed during '
            "the trial that it manipulates people's search queries for maximum ad "
            'revenue." An example provided was the replacement of a search for '
            '"children\'s clothing" with "NIKOLAI-brand kidswear." Google strongly denied '
            "these allegations, and Wired, which initially published Gray's opinion, "
            "removed the article. There remains a prevalent suspicion among the public "
            "regarding Google's practices, including the belief that Google uses semantic "
            "keyword matching to make searches less precise on purpose, thereby "
            "increasing ad auctions. Google maintains that its ad systems do not affect "
            "organic search results."
        ),
    },
    {
        "doc_id": "news-techcrunch",
        "title": "Publisher antitrust suit",
        "category": "technology",
        "body": (
            "TechCrunch reported on December 15, 2023 on a class action antitrust suit "
            'against Google. The suit claims Google "siphons off" news publishers\' '
            "content, their readers, and ad revenue through anticompetitive means. The "
            "complaint specifically mentions Google's use of technologies such as the "
            "Knowledge Graph, Featured Snippets, and new AI products like Search "
            "Generative Experience (SGE) and Bard, which allegedly shift traffic away "
            'from publishers\' websites. "Google compiled this massive database by '
            "extracting information from Publishers' websites, what Google calls "
            "'materials shared across the web,' and from 'open source and licensed "
            "databases,'\" and much of the content was \"misappropriated from "
            'Publishers," according to the lawsuit. The lawsuit argues that these AI '
            "technologies are designed to keep users within Google's ecosystem, thus "
            "reducing traffic and revenue for news publishers."
        ),
    },
]

NR_SPLITTER_REPLY = (
    "1. What were the main claims made by The Age in their report on October 22, 2023, "
    "regarding Google's manipulation of Search to maximize ad revenue?\n"
    "2. What were the primary allegations presented by TechCrunch in their report on "
    'December 15, 2023, about Google "siphoning off" news publishers\' content, readers, '
    "and ad revenue through anticompetitive means?\n"
    "3. How do the portrayals of Google's business practices in the reports by The Age "
    "and TechCrunch compare in terms of the issues highlighted and the overall depiction "
    "of Google's conduct?"
)

NR_ROUND1_QUESTION = (
    "What were the main claims made by The Age in their report on October 22, 2023, "
    "regarding Google's manipulation of Search to maximize ad revenue?"
)

NR_AGENT_REPLY_1 = (
    "Analysis: The article discusses claims made by Megan Gray, a privacy advocate, who "
    'alleged that "Google had accidentally revealed during the trial that it manipulates '
    "people's search queries for maximum ad revenue.\" An example provided was the "
    'replacement of a search for "children\'s clothing" with "NIKOLAI-brand kidswear." '
    "However, Google strongly denied these allegations, and Wired, which initially "
    "published Gray's opinion, removed the article. Despite this, the article notes that "
    "there is a prevalent suspicion among the public regarding Google's practices, "
    "including the belief that Google uses semantic keyword matching to make searches "
    "less precise on purpose, thereby increasing ad auctions. Nonetheless, Google "
    "maintains that its ad systems do not affect organic search results.\n"
    "Answer: The main claim made by The Age in their report was that there were "
    "allegations, notably by Megan Gray, suggesting Google manipulates search queries to "
    "maximize ad revenue, although Google strongly refuted these claims."
)

NR_ROUTER_REPLY_1 = (
    "Evaluation: \n"
    "- Response 1: The analysis is logical and coherent. It clearly outlines the main "
    "claims made by The Age, including the allegations by Megan Gray and Google's denial. "
    "The response also mentions the public suspicion and Google's stance on ad systems "
    "not affecting organic search results. The answer is consistent with the analysis and "
    "addresses the question effectively.\n"
    "\n"
    "Analysis: The Age reported on allegations that Google manipulates search queries to "
    "maximize ad revenue. These allegations were primarily based on statements from Megan "
    "Gray, a privacy advocate, who suggested that Google intentionally alters search "
    'terms, such as changing "children\'s clothing" to "NIKOLAI-brand kidswear." '
    "However, Google strongly denied these claims, and the article that initially "
    "published Gray's opinion was removed. Despite the denial, there is a general public "
    "suspicion that Google uses practices like semantic keyword matching to make "
    "searches less precise, which could increase ad auctions. Google maintains that its "
    "ad systems do not influence organic search results.\n"
    "\n"
    "Answer: The main claim made by The Age in their report on October 22, 2023, was "
    "that there were allegations, notably by Megan Gray, suggesting Google manipulates "
    "search queries to maximize ad revenue, although Google strongly refuted these "
    "claims."
)

NR_JUDGER_REPLY_1 = (
    "Justification: The provided record only gives information about the claims made by "
    "The Age in their report on October 22, 2023. It does not provide any details or "
    "context about the TechCrunch report on December 15, 2023, or a comparison between "
    "the two reports regarding the portrayal of Google's business practices. To "
    "accurately answer the query, we would need information from both reports to assess "
    "the consistency in how they portrayed Google's actions.\n"
    "\n"
    "Answerable: no\n"
    "\n"
    "Response: 1. What were the main allegations made by TechCrunch in their report on "
    "December 15, 2023, regarding Google's impact on news publishers?\n"
    "2. How did the TechCrunch report characterize Google's methods for affecting news "
    "publishers' content, readers, and ad revenue?"
)

NR_ROUND2_QUESTION = (
    "What were the main allegations made by TechCrunch in their report on December 15, "
    "2023, regarding Google's impact on news publishers?"
)

NR_SELECTOR_REPLY = (
    "Explanation: Question 2 differs from Question 1 in terms of the source, date, and "
    "specific focus of the allegations, and it is clear without ambiguous references.\n"
    "Meets both requirements: yes"
)

NR_AGENT_REPLY_2 = (
    "Analysis: According to the TechCrunch report, the main allegations made in the "
    'class action antitrust suit against Google include that Google "siphons off" news '
    "publishers' content, their readers, and ad revenue through anticompetitive means. "
    "The complaint specifically mentions Google's use of technologies such as the "
    "Knowledge Graph, Featured Snippets, and new AI products like Search Generative "
    "Experience (SGE) and Bard, which allegedly shift traffic away from publishers' "
    'websites. "Google compiled this massive database by extracting information from '
    "Publishers' websites, what Google calls 'materials shared across the web,' and from "
    "'open source and licensed databases,'\" and much of the content was "
    '"misappropriated from Publishers," according to the lawsuit. Furthermore, the '
    "lawsuit argues that these AI technologies are designed to keep users within "
    "Google's ecosystem, thus reducing traffic and revenue for news publishers.\n"
    "Answer: The main allegations were that Google misappropriates news publishers' "
    "content, diverts their readers and ad revenue, and uses its AI technologies to "
    "discourage users from visiting the publishers' websites, thereby harming their "
    "business."
)

NR_ROUTER_REPLY_2 = (
    "Evaluation: \n"
    "- Response 1: The analysis is logical and coherent, providing a detailed breakdown "
    "of the allegations made by TechCrunch. It clearly explains that Google is accused "
    "of misappropriating content, diverting readers and ad revenue, and using AI "
    "technologies to keep users within its ecosystem. The answer is well-supported by "
    "the analysis and directly addresses the question.\n"
    "\n"
    "Analysis: The TechCrunch report on December 15, 2023, highlighted several key "
    "allegations against Google. The primary claims include that Google uses "
    "anticompetitive means to siphon off news publishers' content, readers, and ad "
    "revenue. This is achieved through various technologies such as the Knowledge Graph, "
    "Featured Snippets, and new AI products like Search Generative Experience (SGE) and "
    "Bard. These tools are alleged to shift traffic away from publishers' websites, "
    "thereby reducing their revenue. The lawsuit also argues that Google's AI "
    "technologies are designed to keep users within Google's ecosystem, further harming "
    "the business of news publishers.\n"
    "\n"
    "Answer: The main allegations made by TechCrunch in their report on December 15, "
    "2023, were that Google misappropriates news publishers' content, diverts their "
    "readers and ad revenue, and uses its AI technologies, such as the Knowledge Graph, "
    "Featured Snippets, SGE, and Bard, to discourage users from visiting the publishers' "
    "websites, thereby harming their business."
)

NR_JUDGER_REPLY_2 = (
    "Justification: Both The Age and TechCrunch reports highlight criticisms of Google's "
    "business practices, specifically in the context of how they impact other "
    "businesses' revenue. The Age focuses on the manipulation of search results to "
    "increase ad revenue, while TechCrunch addresses a broader set of issues, including "
    "content misappropriation and diversion of readers and ad revenue from news "
    "publishers. Although the specific allegations differ, there is an underlying "
    "consistency in portraying Google as engaging in practices that are detrimental to "
    "other entities for its financial benefit. This suggests a consistent theme in the "
    "portrayal of Google's business practices by these news sources, albeit with "
    "different emphases.\n"
    "\n"
    "Answerable: yes\n"
    "\n"
    "Response: Both reports portray Google as using anticompetitive practices to benefit "
    "financially at others' expense."
)

NR_DEFENDER_REPLY = (
    "Analysis: The records show that The Age accused Google of manipulating search "
    "queries to maximize ad revenue, while TechCrunch reported allegations that Google "
    "siphons off publishers' content, readers, and ad revenue. Both records portray "
    "Google as acting anticompetitively for financial gain, so the portrayals are "
    "consistent.\n"
    f"Answer: {NR_EXPECTED}"
)

NR_JUDGE_REPLY = (
    "Justification: The response is consistent with the model answers, as both news "
    "sources are described as portraying Google engaging in actions that prioritize its "
    "financial benefits in possibly unethical or uncompetitive ways.\n"
    "Correct: yes"
)

NR_SCRIPT = [
    {"match": "break the question into", "reply": NR_SPLITTER_REPLY},
    {"match": "the main claims made by The Age", "reply": NR_AGENT_REPLY_1},
    {"match": "set of respoonses", "reply": NR_ROUTER_REPLY_1},
    {"match": "justify if the query can be answered", "reply": NR_JUDGER_REPLY_1},
    {"match": "assess whether Question 2", "reply": NR_SELECTOR_REPLY},
    {"match": "allegations made by TechCrunch", "reply": NR_AGENT_REPLY_2},
    {"match": "set of respoonses", "reply": NR_ROUTER_REPLY_2},
    {"match": "justify if the query can be answered", "reply": NR_JUDGER_REPLY_2},
    {"match": "If you need more information to answer the query", "reply": NR_DEFENDER_REPLY},
]


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return path


def script_backend(entries: list[dict]) -> ScriptedChatBackend:
    return ScriptedChatBackend(
        [
            ScriptEntry(match=e["match"], reply=e["reply"], repeat=bool(e.get("repeat", False)))
            for e in entries
        ]
    )


def round_of(question: str, answer: str, number: int) -> Round:
    """Routed round ``number``, whose curated answer is ``answer``, as history."""
    return Round(number, question, RoutedAnswer(answer, (), {}, TokenUsage()))
